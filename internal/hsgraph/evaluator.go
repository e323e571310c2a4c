package hsgraph

import (
	"context"
	"math/bits"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
)

// Evaluator computes graph metrics with reusable scratch buffers and an
// optional pool of shard workers, so that the millions of evaluations an
// annealing run performs amortize all setup: after the first call on a
// given switch-count, the steady state is allocation-free.
//
// The bit-parallel BFS runs 64 sources per machine word; the Evaluator
// splits the source words into shards and distributes them over a pool of
// persistent worker goroutines. Each worker owns private scratch words and
// accumulates a private partial (path sum, reachable pairs, diameter);
// partials are merged with integer addition and max, so the result is
// bit-for-bit identical to the serial Evaluate for every worker count and
// every scheduling of the shards.
//
// An Evaluator is not safe for concurrent use by multiple goroutines; give
// each searcher its own (the pool inside is private to it). It is not tied
// to one Graph — any graph may be passed, and buffers grow to the largest
// switch count seen. Call Close when done to release the pool goroutines.
type Evaluator struct {
	workers int

	// Connectivity pre-check scratch (Energy fast path).
	dist  []int32
	queue []int32

	srcs   []int32 // host-bearing orbit representatives, gathered per call
	shards []evalShard

	// Per-round job state: written by the caller before waking the pool,
	// read-only by workers during the round (the channel operations order
	// the accesses).
	g          *Graph
	chunk      int
	shardCount int
	cursor     atomic.Int64 // next shard index to claim

	wake   chan struct{} // one token per pooled worker per round
	done   chan struct{}
	closed bool
}

// evalShard is one worker's private scratch and partial accumulators.
type evalShard struct {
	visited []uint64
	front   []uint64
	next    []uint64
	total   int64 // ordered weighted path sum over this worker's shards
	reached int64 // ordered reachable (source, target) pairs
	wpairs  int64 // ordered reachable host pairs (weighted by host counts)
	diam    int
	_       [16]byte // separate hot accumulators of adjacent workers
}

// NewEvaluator returns an Evaluator with the given number of shard
// workers. Values below 1 are treated as 1 (fully serial, no pool
// goroutines). Callers wanting hardware-sized pools typically pass
// runtime.GOMAXPROCS(0); larger explicit counts are honoured, which lets
// tests exercise the concurrent merge paths on any machine.
func NewEvaluator(workers int) *Evaluator {
	if workers < 1 {
		workers = 1
	}
	e := &Evaluator{
		workers: workers,
		shards:  make([]evalShard, workers),
	}
	if workers > 1 {
		e.wake = make(chan struct{}, workers-1)
		e.done = make(chan struct{}, workers-1)
		for i := 1; i < workers; i++ {
			go func(i int) {
				// Label the pool goroutine so CPU profiles (orpbench
				// -profile-dir, the -metrics-addr /debug/pprof endpoint)
				// attribute shard time to the evaluation stage per worker.
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
					pprof.Labels("stage", "eval", "worker", strconv.Itoa(i))))
				e.worker(i)
			}(i)
		}
	}
	return e
}

// Workers returns the configured shard worker count.
func (e *Evaluator) Workers() int { return e.workers }

// Close releases the pool goroutines. The Evaluator must not be used
// afterwards. Close is idempotent.
func (e *Evaluator) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.wake != nil {
		close(e.wake)
	}
}

func (e *Evaluator) worker(id int) {
	for range e.wake {
		e.runShards(&e.shards[id])
		e.done <- struct{}{}
	}
}

// Evaluate computes the graph's Metrics, sharded over the pool. Results
// are exactly equal (including the partial TotalPath of disconnected
// graphs) for every worker count.
func (e *Evaluator) Evaluate(g *Graph) Metrics {
	met, _ := e.EvaluateOrbit(g, 1)
	return met
}

// Energy is the annealing hot path: it returns the total host-pair path
// length and whether all hosts are connected. A single plain BFS checks
// connectivity first, so moves that disconnect the switch graph fail in
// O(edges) instead of paying the full all-pairs sweep.
func (e *Evaluator) Energy(g *Graph) (int64, bool) {
	energy, connected, _ := e.EnergyOrbit(g, 1)
	return energy, connected
}

// EvaluateOrbit is Evaluate for a graph closed under the cyclic group
// action of order sym (see VerifySymmetric): it sweeps one bit-parallel
// BFS per host-bearing switch orbit and scales the representative
// aggregates by the orbit size, ~sym× fewer sweeps for bit-identical
// Metrics. sym <= 1 is the generic case. Every call verifies the symmetry
// first and returns an error for inputs that break it: a quotient sweep
// of an asymmetric graph would silently mis-evaluate, so the contract is
// fail-loud.
func (e *Evaluator) EvaluateOrbit(g *Graph, sym int) (Metrics, error) {
	sym = max(sym, 1)
	if err := VerifySymmetric(g, sym); err != nil {
		return Metrics{}, err
	}
	total, pairs, diam, bearing, allAttached := e.gather(g, sym)
	switch bearing {
	case 0:
		return g.finishMetrics(0, 0, 0, allAttached && g.n <= 1), nil
	case 1:
		return g.finishMetrics(total, pairs, diam, allAttached), nil
	}
	orderedSum, reachablePairs, orderedWeighted, sweepDiam := e.runSweep(g)
	if sweepDiam > diam {
		diam = sweepDiam
	}
	total, connected := fold(sym, total, orderedSum, reachablePairs, bearing)
	pairs += int64(sym) * orderedWeighted / 2
	return g.finishMetrics(total, pairs, diam, connected && allAttached), nil
}

// EnergyOrbit is Energy for a graph closed under the cyclic group action
// of order sym, with EvaluateOrbit's fail-loud symmetry check.
func (e *Evaluator) EnergyOrbit(g *Graph, sym int) (int64, bool, error) {
	sym = max(sym, 1)
	if err := VerifySymmetric(g, sym); err != nil {
		return 0, false, err
	}
	total, _, _, bearing, allAttached := e.gather(g, sym)
	switch bearing {
	case 0:
		return 0, allAttached && g.n <= 1, nil
	case 1:
		return total, allAttached, nil
	}
	if !allAttached || !e.connectedQuick(g, bearing) {
		return 0, false, nil
	}
	orderedSum, reachablePairs, _, _ := e.runSweep(g)
	total, connected := fold(sym, total, orderedSum, reachablePairs, bearing)
	return total, connected, nil
}

// gather collects the host-bearing orbit representatives (the switches in
// [0, m/sym); every host-bearing switch when sym == 1) into e.srcs and
// returns the intra-switch contribution plus the total host-bearing
// switch count. allAttached is false when some host has no switch (which
// disconnects the graph).
func (e *Evaluator) gather(g *Graph, sym int) (total, pairs int64, diam, bearing int, allAttached bool) {
	e.srcs = e.srcs[:0]
	q := len(g.adj) / sym
	var attached int64
	for s := range g.adj {
		k := int64(g.hosts[s])
		if k == 0 {
			continue
		}
		bearing++
		attached += k
		total += k * (k - 1) // 2 * C(k,2)
		pairs += k * (k - 1) / 2
		if k >= 2 && diam < 2 {
			diam = 2
		}
		if s < q {
			e.srcs = append(e.srcs, int32(s))
		}
	}
	return total, pairs, diam, bearing, attached == int64(g.n)
}

// fold merges a sweep's ordered sums into the graph totals. Orbit images
// contribute row aggregates identical to their representative's, so the
// full ordered sums are sym times the representative sums; every
// distinct reachable host-bearing pair is then counted once per
// direction, so the path sum is halved and the ordered reachable pair
// count compared against bearing·(bearing−1).
func fold(sym int, total, orderedSum, reachablePairs int64, bearing int) (int64, bool) {
	connected := int64(sym)*reachablePairs == int64(bearing)*int64(bearing-1)
	return total + int64(sym)*orderedSum/2, connected
}

// connectedQuick reports whether want host-bearing switches (the total
// count in g) are reachable from the first gathered source, with a single
// serial BFS over reused scratch.
func (e *Evaluator) connectedQuick(g *Graph, want int) bool {
	m := len(g.adj)
	if cap(e.dist) < m {
		e.dist = make([]int32, m)
		e.queue = make([]int32, 0, m)
	}
	seen := e.dist[:m]
	for i := range seen {
		seen[i] = 0
	}
	queue := e.queue[:0]
	start := e.srcs[0]
	seen[start] = 1
	queue = append(queue, start)
	bearing := 1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.adj[v] {
			if seen[u] == 0 {
				seen[u] = 1
				if g.hosts[u] > 0 {
					bearing++
				}
				queue = append(queue, u)
			}
		}
	}
	e.queue = queue[:0]
	return bearing == want
}

// runSweep runs the sharded bit-parallel sweep from the sources currently
// in e.srcs and merges the per-shard partials: the ordered weighted path
// sum, the ordered reachable (source, target) pair count, the ordered
// host-pair count and the sweep diameter.
func (e *Evaluator) runSweep(g *Graph) (orderedSum, reachablePairs, orderedWeighted int64, diam int) {
	n := len(e.srcs)
	// Chunks hold at most 64 sources (one machine word); when the pool is
	// wider than the word count, shrink chunks so every worker gets a shard.
	chunk := (n + e.workers - 1) / e.workers
	if chunk > 64 {
		chunk = 64
	}
	if chunk < 1 {
		chunk = 1
	}
	e.g = g
	e.chunk = chunk
	e.shardCount = (n + chunk - 1) / chunk
	e.cursor.Store(0)
	for i := range e.shards {
		e.shards[i].total = 0
		e.shards[i].reached = 0
		e.shards[i].wpairs = 0
		e.shards[i].diam = 0
	}
	if e.workers == 1 || e.shardCount == 1 {
		e.runShards(&e.shards[0])
	} else {
		for i := 1; i < e.workers; i++ {
			e.wake <- struct{}{}
		}
		e.runShards(&e.shards[0])
		for i := 1; i < e.workers; i++ {
			<-e.done
		}
	}
	e.g = nil
	for i := range e.shards {
		orderedSum += e.shards[i].total
		reachablePairs += e.shards[i].reached
		orderedWeighted += e.shards[i].wpairs
		if e.shards[i].diam > diam {
			diam = e.shards[i].diam
		}
	}
	return orderedSum, reachablePairs, orderedWeighted, diam
}

// runShards claims shards off the shared cursor until none remain,
// accumulating into sh only.
func (e *Evaluator) runShards(sh *evalShard) {
	g := e.g
	m := len(g.adj)
	if cap(sh.visited) < m {
		sh.visited = make([]uint64, m)
		sh.front = make([]uint64, m)
		sh.next = make([]uint64, m)
	}
	for {
		idx := int(e.cursor.Add(1)) - 1
		if idx >= e.shardCount {
			return
		}
		lo := idx * e.chunk
		hi := lo + e.chunk
		if hi > len(e.srcs) {
			hi = len(e.srcs)
		}
		e.sweepBatch(sh, e.srcs[lo:hi])
	}
}

// sweepBatch runs one bit-parallel BFS with the batch sources in the word
// lanes, weighting every newly reached host-bearing switch by the host
// counts of the sources that reached it. This is the package's only
// full-sweep kernel: Graph.Evaluate, EvaluateOrbit and the perf registry
// all run through it.
func (e *Evaluator) sweepBatch(sh *evalShard, batch []int32) {
	g := e.g
	m := len(g.adj)
	visited := sh.visited[:m]
	front := sh.front[:m]
	next := sh.next[:m]
	for i := range visited {
		visited[i] = 0
		front[i] = 0
	}
	for bit, s := range batch {
		visited[s] |= 1 << uint(bit)
		front[s] |= 1 << uint(bit)
	}
	for level := 1; ; level++ {
		for i := range next {
			next[i] = 0
		}
		active := false
		for v := 0; v < m; v++ {
			fv := front[v]
			if fv == 0 {
				continue
			}
			for _, u := range g.adj[v] {
				nu := fv &^ visited[u]
				if nu != 0 {
					next[u] |= nu
				}
			}
		}
		for v := 0; v < m; v++ {
			nv := next[v] &^ visited[v]
			if nv == 0 {
				next[v] = 0
				continue
			}
			next[v] = nv
			visited[v] |= nv
			active = true
			kv := int64(g.hosts[v])
			if kv > 0 {
				var ks, cnt int64
				for mask := nv; mask != 0; mask &= mask - 1 {
					ks += int64(g.hosts[batch[bits.TrailingZeros64(mask)]])
					cnt++
				}
				sh.total += kv * ks * int64(level+2)
				sh.reached += cnt
				sh.wpairs += kv * ks
				if level+2 > sh.diam {
					sh.diam = level + 2
				}
			}
		}
		front, next = next, front
		if !active {
			break
		}
	}
}

// EvaluateParallel computes the metrics with the given number of shard
// workers. It is the one-shot convenience over Evaluator: the pool is
// built and torn down per call, so callers on a hot path should hold an
// Evaluator instead. The result is exactly Evaluate's for any workers.
func (g *Graph) EvaluateParallel(workers int) Metrics {
	e := NewEvaluator(workers)
	defer e.Close()
	return e.Evaluate(g)
}
