package hsgraph

import (
	"context"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
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

	// Per-round job state: written by the caller before it publishes the
	// round's claim word, read-only by workers that claim a shard of it
	// (the atomic claim orders the accesses). job runs items [lo, hi) of
	// the round's n on the claiming goroutine's shard.
	g     *Graph
	n     int
	chunk int
	job   func(sh *evalShard, lo, hi int)
	// sweepJob is runSweep's job (sweepBatch over e.srcs), bound once so
	// that publishing a round allocates nothing.
	sweepJob func(sh *evalShard, lo, hi int)

	// Shard handoff. claim packs the round's shard count (high 32 bits)
	// and the next unclaimed shard index (low 32 bits): one atomic add
	// both claims a shard and tells the claimer whether the round had
	// one left, so a worker that arrives late claims nothing and is never
	// waited on. The caller waits for finished to reach the shard count,
	// not for the workers. round is bumped once per published round and
	// is what idle workers watch.
	claim    atomic.Uint64
	finished atomic.Int64
	round    atomic.Uint64
	// procs is GOMAXPROCS when the pool was built; waiters poll only
	// while the open pools' goroutines fit in it (see spin).
	procs int64
	// park[0] is the caller waiting for its round's shards; park[i] is
	// pool worker i waiting for the next round.
	park   []parkSlot
	closed atomic.Bool
	exited sync.WaitGroup
}

// poolSpin is how long a pool waiter polls before parking. Waking a
// parked goroutine onto an idle processor took 0.1–5 ms on a 2-vCPU VM,
// longer than a whole sweep at the paper's sizes (about 90 µs at n=1024,
// r=15), so a parked worker usually arrives after the caller has claimed
// every shard, and rounds run serially until it does. The budget covers
// the gap between an annealer's consecutive sweeps (move proposal plus
// the connectivity pre-check: 9 µs median, 23 µs at the 95th percentile
// at n=1024, r=15; at 50 µs the worker parked in over 5 % of the gaps).
// Longer idle stretches park it.
const poolSpin = 200 * time.Microsecond

// poolGoroutines counts the goroutines of every open pool, each pool's
// caller included. Several pools can be open at once (ParallelAnneal
// runs one per restart, fault sweeps one per trial runner), and pools
// that each fit in GOMAXPROCS can still oversubscribe it together. The
// count is process-wide because the processors it is compared with are.
var poolGoroutines atomic.Int64

// parkSlot is one waiter's parking place. A waiter announces itself by
// setting parked, re-checks its condition, then blocks on wake; a waker
// that clears parked owes it exactly one token, so wake never holds more
// than one.
type parkSlot struct {
	parked atomic.Bool
	wake   chan struct{}
	_      [48]byte // keep adjacent waiters' flags off one cache line
}

// unpark hands the slot's goroutine a wake token if it is parked.
func (p *parkSlot) unpark() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// spin reports whether waiters should poll before parking: only while
// every open pool goroutine can own a processor. Otherwise a polling
// waiter would only steal the processor the awaited goroutine needs. A
// pool that is never closed stays counted, so later pools just park.
func (e *Evaluator) spin() bool {
	return poolGoroutines.Load() <= e.procs
}

// wait returns once ready reports true: it polls for up to poolSpin
// (when spin allows), then parks on p until a waker hands it a token,
// re-checking after every wake-up (a waker from an earlier round may
// wake it early).
func (e *Evaluator) wait(p *parkSlot, ready func() bool) {
	if e.spin() {
		deadline := time.Now().Add(poolSpin)
		for !ready() && time.Now().Before(deadline) {
		}
	}
	for !ready() {
		p.parked.Store(true)
		if ready() {
			if !p.parked.CompareAndSwap(true, false) {
				<-p.wake // a waker cleared the flag first and sends a token
			}
			return
		}
		<-p.wake
	}
}

// evalShard is one worker's private scratch and partial accumulators.
type evalShard struct {
	visited []uint64
	front   []uint64
	next    []uint64
	planes  []uint64 // host-count bit-planes of the current batch
	total   int64    // ordered weighted path sum over this worker's shards
	reached int64    // ordered reachable (source, target) pairs
	wpairs  int64    // ordered reachable host pairs (weighted by host counts)
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
	e.sweepJob = func(sh *evalShard, lo, hi int) { e.sweepBatch(sh, e.srcs[lo:hi]) }
	if workers > 1 {
		e.procs = int64(runtime.GOMAXPROCS(0))
		poolGoroutines.Add(int64(workers))
		e.park = make([]parkSlot, workers)
		for i := range e.park {
			e.park[i].wake = make(chan struct{}, 1)
		}
		e.exited.Add(workers - 1)
		for i := 1; i < workers; i++ {
			go func(i int) {
				defer e.exited.Done()
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

// Close releases the pool goroutines and returns once they have exited.
// The Evaluator must not be used afterwards. Close is idempotent.
func (e *Evaluator) Close() {
	if e.park == nil || e.closed.Swap(true) {
		return
	}
	e.round.Add(1)
	for i := 1; i < e.workers; i++ {
		e.park[i].unpark()
	}
	e.exited.Wait()
	poolGoroutines.Add(-int64(e.workers))
}

// worker runs pool goroutine id: it waits for each new round and claims
// shards of it until none are left.
func (e *Evaluator) worker(id int) {
	var seen uint64
	for {
		e.wait(&e.park[id], func() bool { return e.round.Load() != seen })
		seen = e.round.Load()
		if e.closed.Load() {
			return
		}
		e.runShards(&e.shards[id])
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
	e.growShards(len(g.adj))
	for i := range e.shards {
		sh := &e.shards[i]
		sh.total, sh.reached, sh.wpairs, sh.diam = 0, 0, 0, 0
	}
	e.g = g
	e.runRound(n, chunk, e.sweepJob)
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

// growShards makes every shard's BFS scratch hold at least words words.
func (e *Evaluator) growShards(words int) {
	for i := range e.shards {
		sh := &e.shards[i]
		if cap(sh.visited) < words {
			sh.visited = make([]uint64, words)
			sh.front = make([]uint64, words)
			sh.next = make([]uint64, words)
		}
	}
}

// runRound runs job over the items [0, n) in shards of chunk items and
// returns once every shard has finished. The pool is woken only when
// there is more than one shard. Each shard runs on exactly one goroutine,
// with that goroutine's private evalShard, so a job that writes only its
// shard and its own items' outputs needs no further synchronization. It
// is the one sharding driver of the package: runSweep and the
// IncrementalEvaluator's row sweeps both run through it.
func (e *Evaluator) runRound(n, chunk int, job func(sh *evalShard, lo, hi int)) {
	shardCount := (n + chunk - 1) / chunk
	e.n, e.chunk, e.job = n, chunk, job
	e.finished.Store(0)
	e.claim.Store(uint64(shardCount) << 32)
	if e.workers > 1 && shardCount > 1 {
		e.round.Add(1)
		for i := 1; i < e.workers; i++ {
			e.park[i].unpark()
		}
	}
	e.runShards(&e.shards[0])
	if e.workers > 1 {
		// A worker still in its claim loop from the previous round may
		// have taken a shard even when no round was announced.
		e.wait(&e.park[0], func() bool { return e.finished.Load() == int64(shardCount) })
	}
}

// runShards claims shards of the current round until none remain and
// runs the round's job on each with sh. The goroutine finishing the
// round's last shard wakes the caller if it parked.
func (e *Evaluator) runShards(sh *evalShard) {
	for {
		c := e.claim.Add(1) - 1
		idx, count := int(uint32(c)), int(c>>32)
		if idx >= count {
			return
		}
		lo := idx * e.chunk
		e.job(sh, lo, min(lo+e.chunk, e.n))
		if e.finished.Add(1) == int64(count) && e.park != nil {
			e.park[0].unpark()
		}
	}
}

// sweepBatch runs one bit-parallel BFS with the batch sources in the word
// lanes, weighting every newly reached host-bearing switch by the host
// counts of the sources that reached it. This is the package's only
// full-sweep kernel: Graph.Evaluate, EvaluateOrbit and the perf registry
// all run through it.
//
// The source weights come from host-count bit-planes built once per
// batch: lane i is set in planes[b] when bit b of batch[i]'s host count
// is, so the summed host count of the lanes in a settled word nv is
// Σ_b popcount(nv & planes[b]) << b — one popcount per plane instead of
// one step per set lane.
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
	var maxHosts int32
	for _, s := range batch {
		maxHosts = max(maxHosts, g.hosts[s])
	}
	nplanes := bits.Len32(uint32(maxHosts))
	if cap(sh.planes) < nplanes {
		sh.planes = make([]uint64, nplanes)
	}
	planes := sh.planes[:nplanes]
	for b := range planes {
		planes[b] = 0
	}
	for bit, s := range batch {
		lane := uint64(1) << uint(bit)
		visited[s] |= lane
		front[s] |= lane
		for k, b := uint32(g.hosts[s]), 0; k != 0; k, b = k>>1, b+1 {
			if k&1 != 0 {
				planes[b] |= lane
			}
		}
	}
	var total, reached, wpairs int64
	diam := 0
	for level := 1; ; level++ {
		for i := range next {
			next[i] = 0
		}
		for v := 0; v < m; v++ {
			fv := front[v]
			if fv == 0 {
				continue
			}
			// Unconditionally OR the frontier into next: the settle pass
			// below masks off already-visited bits.
			for _, u := range g.adj[v] {
				next[u] |= fv
			}
		}
		// This level's weighted host pairs and reached source lanes,
		// summed over the host-bearing switches it settles.
		var levelW, levelReached int64
		active := false
		for v := 0; v < m; v++ {
			nv := next[v] &^ visited[v]
			if nv == 0 {
				next[v] = 0
				continue
			}
			next[v] = nv
			visited[v] |= nv
			active = true
			if kv := int64(g.hosts[v]); kv > 0 {
				var ks int64
				for b, p := range planes {
					ks += int64(bits.OnesCount64(nv&p)) << uint(b)
				}
				levelW += kv * ks
				levelReached += int64(bits.OnesCount64(nv))
			}
		}
		if levelReached > 0 {
			total += levelW * int64(level+2)
			wpairs += levelW
			reached += levelReached
			diam = level + 2
		}
		front, next = next, front
		if !active {
			break
		}
	}
	sh.total += total
	sh.reached += reached
	sh.wpairs += wpairs
	if diam > sh.diam {
		sh.diam = diam
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
