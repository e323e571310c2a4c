// Package opt implements the paper's randomized algorithm for the
// order/radix problem: simulated annealing over host-switch graphs with the
// swap operation (Section 5.1), the swing operation and the 2-neighbor
// swing operation (Section 5.2), plus the clique construction of the
// Appendix for the trivial regime n <= m(r-m+1).
package opt

import (
	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// An undo reverses a successfully applied move.
type undo func()

// trySwap applies the paper's swap operation (Fig. 2): replace switch-switch
// edges {a,b}, {c,d} by {a,d}, {b,c}. Host attachments are untouched, so
// repeated swaps explore k-regular host-switch graphs. Returns ok=false
// (graph unchanged) when no valid swap could be sampled.
func trySwap(g *hsgraph.Graph, rnd *rng.Rand) (undo, bool) {
	ne := g.NumEdges()
	if ne < 2 {
		return nil, false
	}
	for attempt := 0; attempt < 8; attempt++ {
		i := rnd.Intn(ne)
		j := rnd.Intn(ne)
		if i == j {
			continue
		}
		a, b := g.Edge(i)
		c, d := g.Edge(j)
		// Random orientation: swap the roles of c and d half the time, so
		// both rewirings {a,d}/{b,c} and {a,c}/{b,d} are reachable.
		if rnd.Intn(2) == 0 {
			c, d = d, c
		}
		if a == c || a == d || b == c || b == d {
			continue
		}
		if g.HasEdge(a, d) || g.HasEdge(b, c) {
			continue
		}
		mustDo(g.Disconnect(a, b))
		mustDo(g.Disconnect(c, d))
		mustDo(g.Connect(a, d))
		mustDo(g.Connect(b, c))
		return func() {
			mustDo(g.Disconnect(a, d))
			mustDo(g.Disconnect(b, c))
			mustDo(g.Connect(a, b))
			mustDo(g.Connect(c, d))
		}, true
	}
	return nil, false
}

// applySwing performs swing(a, b, c) (Fig. 3): given edge {a,b} and a host
// h on c, rewire to edge {a,c} with h moved to b. Increments k_b,
// decrements k_c. Preconditions (checked): {a,b} exists, c has a host,
// c != a, c != b, and {a,c} does not exist. Degrees are preserved:
// b swaps a switch link for a host link, c the reverse.
func applySwing(g *hsgraph.Graph, a, b, c int) (undo, bool) {
	if c == a || c == b || !g.HasEdge(a, b) || g.HasEdge(a, c) {
		return nil, false
	}
	h := g.AnyHostOn(c)
	if h < 0 {
		return nil, false
	}
	mustDo(g.Disconnect(a, b))
	// b now has a free port for the host; c will have one for the edge.
	mustDo(g.MoveHost(h, b))
	mustDo(g.Connect(a, c))
	return func() {
		mustDo(g.Disconnect(a, c))
		mustDo(g.MoveHost(h, c))
		mustDo(g.Connect(a, b))
	}, true
}

// proposeMove samples one swap or swing move (the 2-neighbor swing set
// calibrates its temperature with swings) under the order-sym group
// action; sym == 1 is the generic operator.
func proposeMove(g *hsgraph.Graph, moves MoveSet, sym int, rnd *rng.Rand) (undo, bool) {
	switch {
	case moves != SwapOnly:
		return trySymSwing(g, sym, rnd)
	case sym > 1:
		return trySymSwap(g, sym, rnd)
	}
	// Not trySymSwap(g, 1, rnd): its undo replays in reverse order, which
	// permutes the edge list and so forks every later move sample.
	return trySwap(g, rnd)
}

func mustDo(err error) {
	if err != nil {
		panic("opt: move invariant violated: " + err.Error())
	}
}
