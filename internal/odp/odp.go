// Package odp solves the order/degree problem (ODP) discussed in the
// paper's introduction and studied by the Graph Golf competition [4]:
// given the order N and the maximum degree D of an ordinary undirected
// graph, find one minimising the (switch-to-switch) average shortest path
// length and diameter.
//
// ODP is the special case of ORP obtained by attaching exactly one host
// to every switch: the host-to-host metrics then differ from the
// switch-graph metrics only by the affine map of Equation 1, so the same
// annealer applies with the swap operation, which preserves the regular
// structure. The package also reads and writes the Graph Golf edge-list
// format (one "u v" pair per line).
package odp

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/bounds"
	"repro/internal/hsgraph"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/topo"
)

// Options configures Solve.
type Options struct {
	// Iterations for the annealer. Default 20000.
	Iterations int
	// Seed drives all randomness.
	Seed uint64
	// Schedule forwards to the annealer (Geometric by default).
	Schedule opt.Schedule
	// Workers is the number of evaluation shard workers (hsgraph.Evaluator);
	// zero means GOMAXPROCS. Results are identical for any worker count.
	Workers int
	// Eval selects how the annealer evaluates moves (see opt.EvalMode).
	// Default exact.
	Eval opt.EvalMode
	// Symmetry, when >= 2, searches only graphs closed under a cyclic
	// group action of that order (must divide n): the start is a
	// symmetric regular graph (topo.RandomRegularSymmetric) and every
	// move swaps a whole edge orbit. The cache-backed eval modes
	// (opt.EvalIncremental, opt.EvalSymmetric) then also quotient the
	// evaluation.
	Symmetry int
}

// Result is a solved ODP instance.
type Result struct {
	Order    int
	Degree   int
	ASPL     float64 // switch-graph average shortest path length
	Diameter int     // switch-graph diameter
	ASPLGap  float64 // ASPL minus the Moore lower bound
	LowerB   float64 // Moore ASPL lower bound
	Graph    *hsgraph.Graph
}

// Solve searches for an order-n degree-d graph with minimal ASPL.
// Requires n >= 2, 2 <= d < n and n*d even.
func Solve(n, d int, o Options) (*Result, error) {
	if n < 2 {
		return nil, fmt.Errorf("odp: order %d < 2", n)
	}
	if d < 2 || d >= n {
		return nil, fmt.Errorf("odp: degree %d out of range [2, %d)", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("odp: n*d must be even (n=%d, d=%d)", n, d)
	}
	if o.Iterations == 0 {
		o.Iterations = 20000
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	// One host per vertex; radix d+1 leaves exactly d switch ports.
	var start *hsgraph.Graph
	var err error
	if o.Symmetry > 1 {
		start, err = topo.RandomRegularSymmetric(n, n, d+1, d, o.Symmetry, o.Seed)
	} else {
		start, err = hsgraph.RandomRegular(n, n, d+1, d, rng.New(o.Seed))
	}
	if err != nil {
		return nil, err
	}
	g, _, err := opt.Anneal(start, opt.Options{
		Iterations: o.Iterations,
		Moves:      opt.SwapOnly,
		Schedule:   o.Schedule,
		Seed:       o.Seed + 1,
		Workers:    o.Workers,
		Eval:       o.Eval,
		Symmetry:   o.Symmetry,
	})
	if err != nil {
		return nil, err
	}
	return resultFor(g)
}

func resultFor(g *hsgraph.Graph) (*Result, error) {
	aspl, diam, ok := g.SwitchASPL()
	if !ok {
		return nil, fmt.Errorf("odp: solution disconnected")
	}
	n := g.Switches()
	d := g.SwitchDegree(0)
	lb := bounds.ASPLLowerBoundRegular(n, d)
	return &Result{
		Order:    n,
		Degree:   d,
		ASPL:     aspl,
		Diameter: diam,
		ASPLGap:  aspl - lb,
		LowerB:   lb,
		Graph:    g,
	}, nil
}

// WriteEdgeList writes the switch graph in Graph Golf format: one
// "u v" pair per line, each undirected edge once, sorted.
func WriteEdgeList(w io.Writer, g *hsgraph.Graph) error {
	bw := bufio.NewWriter(w)
	type edge struct{ a, b int }
	edges := make([]edge, 0, g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		a, b := g.Edge(i)
		if a > b {
			a, b = b, a
		}
		edges = append(edges, edge{a, b})
	}
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && less(edges[j], edges[j-1]); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	for _, e := range edges {
		fmt.Fprintf(bw, "%d %d\n", e.a, e.b)
	}
	return bw.Flush()
}

func less(a, b struct{ a, b int }) bool {
	if a.a != b.a {
		return a.a < b.a
	}
	return a.b < b.b
}

// ReadEdgeList parses a Graph Golf edge list into a host-switch graph
// with one host per vertex. maxDegree bounds the switch ports; pass 0 to
// size it from the data.
func ReadEdgeList(r io.Reader, maxDegree int) (*hsgraph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	type edge struct{ a, b int }
	var edges []edge
	maxV := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var a, b int
		if _, err := fmt.Sscanf(line, "%d %d", &a, &b); err != nil {
			return nil, fmt.Errorf("odp: line %d: %v", lineNo, err)
		}
		if a < 0 || b < 0 {
			return nil, fmt.Errorf("odp: line %d: negative vertex", lineNo)
		}
		if a > hsgraph.MaxReadDim || b > hsgraph.MaxReadDim {
			return nil, fmt.Errorf("odp: line %d: vertex id exceeds limit %d", lineNo, hsgraph.MaxReadDim)
		}
		if a > maxV {
			maxV = a
		}
		if b > maxV {
			maxV = b
		}
		edges = append(edges, edge{a, b})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxV < 1 {
		return nil, fmt.Errorf("odp: empty edge list")
	}
	n := maxV + 1
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.a]++
		deg[e.b]++
	}
	if maxDegree == 0 {
		for _, d := range deg {
			if d > maxDegree {
				maxDegree = d
			}
		}
	}
	g := hsgraph.New(n, n, maxDegree+1)
	for v := 0; v < n; v++ {
		if err := g.AttachHost(v, v); err != nil {
			return nil, err
		}
	}
	for _, e := range edges {
		if err := g.Connect(e.a, e.b); err != nil {
			return nil, fmt.Errorf("odp: edge (%d,%d): %w", e.a, e.b, err)
		}
	}
	return g, nil
}

// Evaluate reports the ODP metrics of an edge-list graph.
func Evaluate(g *hsgraph.Graph) (*Result, error) {
	aspl, diam, ok := g.SwitchASPL()
	if !ok {
		return nil, fmt.Errorf("odp: graph disconnected")
	}
	n := g.Switches()
	// Use the maximum degree for the bound (graphs need not be regular).
	d := 0
	for s := 0; s < n; s++ {
		if g.SwitchDegree(s) > d {
			d = g.SwitchDegree(s)
		}
	}
	lb := bounds.ASPLLowerBoundRegular(n, d)
	return &Result{Order: n, Degree: d, ASPL: aspl, Diameter: diam, ASPLGap: aspl - lb, LowerB: lb, Graph: g}, nil
}
