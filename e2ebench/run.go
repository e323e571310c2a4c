package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/hsgraph"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/phys"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// runner measures one invocation: a closed loop of operations (one solve
// or one pipeline pass at a time), each on its own derived seed.
type runner struct {
	p *plan
	s samples
	// first is seed 0's solved graph, for the once-per-run probes;
	// relabeled holds the fixed seeds' relabeled graphs, for the NPB
	// kernels of the solve workloads.
	first             *hsgraph.Graph
	relabeled         []*hsgraph.Graph
	moves             opt.MoveCounters
	inc               hsgraph.IncStats
	proposed          int64
	failures          []string
	attempted, failed int
}

// run executes the workload for the configured window and returns the
// metrics of its mode: end-to-end when untraced, per-layer when traced.
// setupS are the set-up times measured by the caller (untraced only).
func run(p *plan, setupS []float64) report {
	rn := &runner{p: p, s: samples{}}
	window := time.Duration(p.cfg.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= p.w.fixedSeeds && time.Since(start)+last > window {
			break
		}
		t := time.Now()
		rn.attempt(func() error { return rn.op(i, seedAt(p.cfg.seed, i)) })
		last = time.Since(t)
	}
	// Read before the solve workloads' NPB simulation, which the orpsolve
	// path never runs; the pipeline's simulation is inside the loop.
	rss := peakRSSMB()
	if rn.first != nil {
		if !p.w.pipeline {
			rn.attempt(rn.solveKernels)
		}
		if p.cfg.trace {
			rn.attempt(rn.layerProbes)
		}
	}
	rn.finishDeterministic()

	res := result{Attempted: rn.attempted, Failed: rn.failed}
	res.Correct = rn.failed == 0
	defs := perLayer
	if !p.cfg.trace {
		defs = endToEnd
		rn.s["setup_s"] = setupS
		rn.s.add("peak_rss_mb", rss)
		rn.s.add("success_rate", float64(rn.attempted-rn.failed)/float64(rn.attempted))
	}
	res.Metrics = emit(defs, rn.s)
	raw := samples{}
	for _, d := range defs {
		raw[d.name] = rn.s[d.name]
	}
	return report{samples: raw, failures: rn.failures, res: res}
}

// attempt runs one gated operation, counting it and any failure.
func (rn *runner) attempt(f func() error) {
	rn.attempted++
	if err := f(); err != nil {
		rn.failed++
		rn.failures = append(rn.failures, err.Error())
	}
}

func (rn *runner) options(seed uint64) core.Options {
	w := rn.p.w
	return core.Options{
		Iterations: w.iters,
		Seed:       seed,
		Moves:      w.moves,
		Workers:    rn.p.workers,
		Eval:       w.eval,
		Symmetry:   w.sym,
	}
}

// op is one timed operation: the solve, then (orpsolve's -dfs default)
// the depth-first host relabeling, then on the pipeline workload the
// network, NPB, partition and cost stages of Fig. 9.
func (rn *runner) op(i int, seed uint64) error {
	w, traced := rn.p.w, rn.p.cfg.trace
	fixed := i < w.fixedSeeds
	var ref *core.Topology
	var refS float64
	if traced {
		var err error
		if ref, refS, err = rn.reference(seed); err != nil {
			return err
		}
	}

	t0 := time.Now()
	top, spans, err := rn.solve(seed, traced)
	solveS := since(t0)
	if err != nil {
		return fmt.Errorf("solve seed %d: %w", seed, err)
	}
	if err := rn.checkSolve(top); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	t := time.Now()
	g := topo.RelabelHostsDFS(top.Graph)
	relabelS := since(t)
	if err := g.Validate(); err != nil {
		return fmt.Errorf("seed %d: relabeled topology invalid: %w", seed, err)
	}
	if i == 0 {
		rn.first = top.Graph
	}
	if fixed {
		rn.s.add("haspl_gap", (top.Metrics.HASPL-rn.p.lower)/rn.p.lower)
		if !w.pipeline {
			rn.relabeled = append(rn.relabeled, g)
		}
	}
	if traced {
		if err := rn.checkTraced(top, ref); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		rn.recordSolveLayers(top, spans, solveS, refS, fixed)
		rn.s.add("topo.relabel_s", relabelS)
	}
	if !w.pipeline {
		rn.s.add("solve_s", solveS)
		rn.s.add("pipeline_s", since(t0))
		return nil
	}

	netS, kernelS, err := rn.runKernels(g, fixed)
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	stages := solveS + relabelS + netS + kernelS
	t = time.Now()
	pg := partition.FromHostSwitchGraph(g)
	var cut int64
	for parts := w.parts[0]; parts <= w.parts[1]; parts++ {
		assign, err := partition.KWay(pg, parts, seed)
		if err != nil {
			return fmt.Errorf("seed %d: partition P=%d: %w", seed, parts, err)
		}
		cut += partition.EdgeCut(pg, assign)
	}
	partS := since(t)
	stages += partS
	t = time.Now()
	rep := phys.Evaluate(g, phys.NewParams())
	physS := since(t)
	stages += physS
	pipeS := since(t0)

	rn.s.add("solve_s", solveS)
	rn.s.add("pipeline_s", pipeS)
	if traced {
		rn.s.add("partition.kway_s", partS)
		rn.s.add("phys.evaluate_s", physS)
		rn.s.add("bench.span_coverage", stages/pipeS)
		if fixed {
			rn.s.add("partition.cut_edges", float64(cut))
			rn.s.add("phys.cost_usd", rep.TotalCost())
			rn.s.add("phys.power_w", rep.TotalPowerW())
		}
	}
	return nil
}

// reference is the untraced solve a traced run compares against; it
// also yields allocations per move, counted outside any tracing.
func (rn *runner) reference(seed uint64) (*core.Topology, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	top, err := core.Solve(rn.p.w.n, rn.p.w.r, rn.options(seed))
	wall := since(t)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, 0, fmt.Errorf("untraced solve seed %d: %w", seed, err)
	}
	rn.s.add("opt.allocs_per_move", float64(m1.Mallocs-m0.Mallocs)/float64(rn.p.w.iters))
	return top, wall, nil
}

// solveSpans is what one traced solve reports about itself.
type solveSpans struct {
	phase     map[string]float64 // anneal stage -> seconds
	snapshots int                // best-energy decreases
}

// solve runs core.Solve; traced, it hangs a span root and a per-
// iteration observer on the public options.
func (rn *runner) solve(seed uint64, traced bool) (*core.Topology, solveSpans, error) {
	o := rn.options(seed)
	if !traced {
		top, err := core.Solve(rn.p.w.n, rn.p.w.r, o)
		return top, solveSpans{}, err
	}
	var mu sync.Mutex
	var events []obs.Event
	tr := obs.NewTracer("e2ebench", time.Time{}, func(e obs.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	var sp solveSpans
	var firstBest, lastBest int64
	seen := false
	o.Span = tr.Root("e2ebench.solve")
	o.ReportEvery = 1
	o.Observer = opt.ObserverFunc(func(s opt.AnnealSample) {
		switch {
		case !seen:
			firstBest, lastBest, seen = s.Best, s.Best, true
		case s.Best < lastBest:
			lastBest = s.Best
			sp.snapshots++
		}
	})
	top, err := core.Solve(rn.p.w.n, rn.p.w.r, o)
	o.Span.End()
	if err != nil {
		return nil, sp, err
	}
	if seen && firstBest < top.Anneal.Initial.TotalPath {
		sp.snapshots++ // the first iteration already improved on the start
	}
	mu.Lock()
	sp.phase = obs.PhaseDurations(events)
	mu.Unlock()
	return top, sp, nil
}

// checkSolve is the correctness gate every solve passes: a valid,
// connected graph that respects Theorems 1 and 2.
func (rn *runner) checkSolve(top *core.Topology) error {
	if err := top.Graph.Validate(); err != nil {
		return fmt.Errorf("invalid topology: %w", err)
	}
	if !top.Metrics.Connected {
		return fmt.Errorf("disconnected topology")
	}
	if top.Metrics.HASPL < rn.p.lower-1e-9 {
		return fmt.Errorf("h-ASPL %v below the Theorem 2 bound %v", top.Metrics.HASPL, rn.p.lower)
	}
	if top.Metrics.Diameter < rn.p.diamLB {
		return fmt.Errorf("diameter %d below the Theorem 1 bound %d", top.Metrics.Diameter, rn.p.diamLB)
	}
	return nil
}

// checkTraced adds the traced run's gates: tracing must not perturb the
// trajectory, and the final TotalPath must match the plain-BFS oracle.
func (rn *runner) checkTraced(top, ref *core.Topology) error {
	if top.Graph.Fingerprint() != ref.Graph.Fingerprint() {
		return fmt.Errorf("traced result %s differs from untraced %s", top.Graph.Fingerprint(), ref.Graph.Fingerprint())
	}
	if slow := top.Graph.EvaluateSlow(); slow.TotalPath != top.Metrics.TotalPath {
		return fmt.Errorf("TotalPath %d, plain-BFS oracle %d", top.Metrics.TotalPath, slow.TotalPath)
	}
	return nil
}

func checkRun(st mpi.Stats, err error) error {
	if err != nil {
		return fmt.Errorf("mpi run: %w", err)
	}
	if st.FlowsFailed > 0 {
		return fmt.Errorf("mpi run: %d flows failed", st.FlowsFailed)
	}
	if st.Elapsed <= 0 {
		return fmt.Errorf("mpi run: zero simulated time")
	}
	return nil
}

// mops is kernel k's simulated Mop/s: its class nominal operation count,
// scaled to the one iteration simulated, over the simulated time.
func (rn *runner) mops(k int, st mpi.Stats) float64 {
	return rn.p.specs[k].NominalOps() / float64(rn.p.classIters[k]) / st.Elapsed / 1e6
}

// recordSolveLayers files one traced solve's anneal split.
func (rn *runner) recordSolveLayers(top *core.Topology, sp solveSpans, solveS, refS float64, fixed bool) {
	initS, loopS, finalS := sp.phase["anneal.init"], sp.phase["anneal.loop"], sp.phase["anneal.final-eval"]
	rn.s.add("opt.init_s", initS)
	rn.s.add("opt.loop_s", loopS)
	rn.s.add("opt.final_eval_s", finalS)
	rn.s.add("core.glue_s", solveS-initS-loopS-finalS)
	rn.s.add("opt.moves_per_s", ratio(float64(top.Anneal.Proposed), loopS))
	rn.s.add("bench.trace_overhead", solveS/refS)
	if !rn.p.w.pipeline {
		rn.s.add("bench.span_coverage", (initS+loopS+finalS)/solveS)
	}
	if !fixed {
		return
	}
	rn.s.add("opt.best_snapshots", float64(sp.snapshots))
	mc, inc := top.Anneal.Moves, top.Anneal.Eval.Inc
	rn.moves.SwingAttempts += mc.SwingAttempts
	rn.moves.SwingAccepts += mc.SwingAccepts
	rn.moves.CounterAttempts += mc.CounterAttempts
	rn.moves.CounterAccepts += mc.CounterAccepts
	rn.moves.SwapAttempts += mc.SwapAttempts
	rn.moves.SwapAccepts += mc.SwapAccepts
	rn.proposed += int64(top.Anneal.Proposed)
	rn.inc.Syncs += inc.Syncs
	rn.inc.DirtySources += inc.DirtySources
	rn.inc.SweptSources += inc.SweptSources
	rn.inc.StoredPeekReuses += inc.StoredPeekReuses
	rn.s.add("hsgraph.inc.full_rebuilds", float64(inc.FullRebuilds))
	rn.s.add("hsgraph.inc.peek_store_skips", float64(inc.PeekStoreSkips))
}

// solveKernels simulates the NPB kernels (MG) on each fixed seed's
// relabeled topology: the Mop/s those topologies would give a user.
func (rn *runner) solveKernels() error {
	for _, g := range rn.relabeled {
		if _, _, err := rn.runKernels(g, true); err != nil {
			return err
		}
	}
	return nil
}

// runKernels builds g's network and simulates the workload's NPB kernels
// on it, recording the simnet, mpi and npb layers (the seed-determined
// counts and npb_mops only for a fixed seed). It returns the network
// build time and the summed kernel wall time.
func (rn *runner) runKernels(g *hsgraph.Graph, fixed bool) (netS, kernelS float64, err error) {
	t := time.Now()
	nw, err := simnet.NewNetwork(g, simnet.Config{})
	if err != nil {
		return 0, 0, fmt.Errorf("network: %w", err)
	}
	netS = since(t)
	var mops []float64
	var flows int64
	for k, spec := range rn.p.specs {
		t = time.Now()
		st, err := mpi.Run(nw, rn.p.w.ranks, mpi.Config{}, spec.Program())
		dt := since(t)
		if err := checkRun(st, err); err != nil {
			return 0, 0, err
		}
		kernelS += dt
		flows += st.FlowsCompleted
		mops = append(mops, rn.mops(k, st))
		rn.s.add("mpi.run_s."+spec.Name, dt)
		if fixed {
			rn.s.add("simnet.flows."+spec.Name, float64(st.FlowsCompleted))
			rn.s.add("npb.elapsed_s."+spec.Name, st.Elapsed)
		}
	}
	rn.s.add("simnet.network_s", netS)
	rn.s.add("simnet.flows_per_s", float64(flows)/kernelS)
	if fixed {
		rn.s.add("npb_mops", geomean(mops))
	}
	return netS, kernelS, nil
}

// layerProbes times single layer calls from outside, once per traced
// run: the bounds, start-graph generation, one full h-ASPL sweep at one
// and two workers, and one Graph.Clone.
func (rn *runner) layerProbes() error {
	w := rn.p.w
	rn.s.add("bounds.eval_s", medianTime(5, func() {
		bounds.OptimalSwitchCount(w.n, w.r, 0)
		bounds.HASPLLowerBound(w.n, w.r)
		bounds.DiameterLowerBound(w.n, w.r)
	}))
	m, seed := rn.first.Switches(), seedAt(rn.p.cfg.seed, 0)
	var start *hsgraph.Graph
	var err error
	rn.s.add("topo.start_graph_s", medianTime(3, func() {
		if w.sym > 1 {
			start, err = topo.RandomSymmetric(w.n, m, w.r, w.sym, seed)
		} else {
			start, err = hsgraph.RandomConnected(w.n, m, w.r, rng.New(seed))
		}
	}))
	if err != nil {
		return fmt.Errorf("start graph: %w", err)
	}
	sweep := map[int]float64{}
	for _, workers := range []int{1, 2} {
		if workers > runtime.NumCPU() {
			continue
		}
		ev := hsgraph.NewEvaluator(workers)
		sweep[workers] = medianTime(5, func() { ev.Energy(start) })
		ev.Close()
	}
	rn.s.add("hsgraph.sweep_s.w1", sweep[1])
	rn.s.add("hsgraph.sweep_s.w2", sweep[2])
	rn.s.add("hsgraph.sweep_ns_per_source_edge", sweep[1]/float64(m*start.NumEdges())*1e9)
	rn.s.add("hsgraph.sweep_speedup_w2", ratio(sweep[1], sweep[2]))
	const clones = 20
	rn.s.add("opt.clone_s", medianTime(5, func() {
		for i := 0; i < clones; i++ {
			rn.first.Clone()
		}
	})/clones)
	if w.eval != opt.EvalExact {
		g := 1
		if w.eval == opt.EvalSymmetric {
			g = w.sym
		}
		rn.s.add("hsgraph.inc.cache_mb", float64(m/g)*float64(m)*2/1e6)
	}
	return nil
}

// finishDeterministic collapses the seed-determined metrics to one value
// each: the mean over the fixed seeds, or a ratio of their summed
// counters.
func (rn *runner) finishDeterministic() {
	mc := rn.moves
	if rn.p.cfg.trace {
		rn.s.add("opt.accept_ratio.swing", ratio(float64(mc.SwingAccepts), float64(mc.SwingAttempts)))
		rn.s.add("opt.accept_ratio.counter", ratio(float64(mc.CounterAccepts), float64(mc.CounterAttempts)))
		rn.s.add("opt.accept_ratio.swap", ratio(float64(mc.SwapAccepts), float64(mc.SwapAttempts)))
		inc, m := rn.inc, 0
		if rn.first != nil {
			m = rn.first.Switches()
		}
		rn.s.add("hsgraph.inc.swept_sources_per_move", ratio(float64(inc.SweptSources), float64(rn.proposed)))
		rn.s.add("hsgraph.inc.dirty_frac", ratio(float64(inc.DirtySources), float64(inc.Syncs)*float64(m)))
		rn.s.add("hsgraph.inc.peek_reuse_ratio", ratio(float64(inc.StoredPeekReuses), float64(inc.Syncs)))
	}
	for name := range deterministic {
		if xs := rn.s[name]; len(xs) > 1 {
			rn.s[name] = []float64{mean(xs)}
		}
	}
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// medianTime is the median wall time of reps calls of f.
func medianTime(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t := time.Now()
		f()
		ts[i] = since(t)
	}
	return median(ts)
}
