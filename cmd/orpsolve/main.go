// Command orpsolve solves an order/radix problem instance: given order n
// (hosts) and radix r (ports per switch), it predicts the optimal switch
// count from the continuous Moore bound and runs simulated annealing with
// the 2-neighbor swing operation, writing the resulting host-switch graph
// and its metrics.
//
// Usage:
//
//	orpsolve -n 1024 -r 15 [-iters 100000] [-restarts 4] [-workers 0]
//	         [-seed 1] [-m 0] [-moves 2ns|swap|swing] [-o graph.hsg] [-v]
//	         [-progress] [-trace-out anneal.jsonl] [-metrics-addr 127.0.0.1:0]
//	         [-checkpoint run.ckpt] [-checkpoint-every 10000] [-resume]
//	         [-store runs/]
//
// With -checkpoint the anneal periodically persists a crash-safe snapshot
// (and a final one on SIGINT/SIGTERM); -resume continues such a run and
// produces the bit-identical result the uninterrupted run would have.
//
// With -store every completed solve appends one record (configuration,
// final metrics, convergence trace, wall-time decomposition) to the run
// store in that directory; query it later with orphist. orpd and orpfault
// can share the same directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/ckpt"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/runstore"
	"repro/internal/stats"
	"repro/internal/topo"
)

func main() {
	var (
		n        = flag.Int("n", 1024, "order: number of hosts")
		r        = flag.Int("r", 15, "radix: ports per switch")
		iters    = flag.Int("iters", 100000, "annealing iterations")
		restarts = flag.Int("restarts", 1, "independent annealing restarts (best wins)")
		workers  = flag.Int("workers", 0, "evaluation shard workers per run (0 = auto: split GOMAXPROCS over restarts)")
		seed     = flag.Uint64("seed", 1, "random seed")
		fixedM   = flag.Int("m", 0, "force the switch count (0 = continuous-Moore prediction)")
		moves    = flag.String("moves", "2ns", "move set: 2ns, swap or swing")
		evalMode = flag.String("eval-mode", "exact", "move evaluation: exact (full sweep) or incremental (dirty-source cache, orbit-quotiented under -symmetry); symmetric is incremental that requires -symmetry. Same result, more moves/s")
		symmetry = flag.Int("symmetry", 0, "search only graphs closed under a cyclic group action of this order (0 = off; the incremental and symmetric eval modes then also quotient evaluation)")
		out      = flag.String("o", "", "output file for the graph (default stdout)")
		dfs      = flag.Bool("dfs", true, "relabel hosts in depth-first order (paper §6.2.1)")
		verbose  = flag.Bool("v", false, "print annealing progress")
		repeat   = flag.Int("repeat", 1, "solve with this many consecutive seeds and report h-ASPL statistics")

		progress    = flag.Bool("progress", false, "print per-interval anneal telemetry (temperature, accept rate, moves/s) to stderr")
		traceOut    = flag.String("trace-out", "", "write anneal telemetry as JSONL events to this file (obs schema)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while solving (e.g. 127.0.0.1:0)")

		checkpoint      = flag.String("checkpoint", "", "write crash-safe anneal snapshots to this file (one per restart when -restarts > 1)")
		checkpointEvery = flag.Int("checkpoint-every", 0, "snapshot interval in iterations (0 = annealer default, 10000)")
		resume          = flag.Bool("resume", false, "continue from the -checkpoint snapshot; the result is bit-identical to an uninterrupted run")

		storeDir = flag.String("store", "", "append one run record per completed solve to the run store in this directory (query with orphist)")
	)
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.ExitIfVersion("orpsolve", version)
	if _, err := cliutil.Workers(*workers); err != nil {
		fmt.Fprintf(os.Stderr, "orpsolve: %v\n", err)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "orpsolve: -resume needs -checkpoint")
		os.Exit(2)
	}
	if *checkpoint != "" && *repeat > 1 {
		fmt.Fprintln(os.Stderr, "orpsolve: -checkpoint does not combine with -repeat (one snapshot file cannot serve several seeds)")
		os.Exit(2)
	}

	var moveSet opt.MoveSet
	switch *moves {
	case "2ns":
		moveSet = opt.TwoNeighborSwing
	case "swap":
		moveSet = opt.SwapOnly
	case "swing":
		moveSet = opt.SwingOnly
	default:
		fmt.Fprintf(os.Stderr, "orpsolve: unknown move set %q\n", *moves)
		os.Exit(2)
	}
	eval, err := opt.ParseEvalMode(*evalMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orpsolve: %v\n", err)
		os.Exit(2)
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		srv, err := cliutil.StartMetrics(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orpsolve: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
	}
	// A resumed run appends to the interrupted run's event log instead of
	// truncating it.
	openSink := cliutil.OpenSink
	if *resume {
		openSink = cliutil.AppendSink
	}
	sink, err := openSink(*traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orpsolve: %v\n", err)
		os.Exit(1)
	}
	defer sink.Close()
	var store *runstore.Store
	if *storeDir != "" {
		store, err = runstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orpsolve: %v\n", err)
			os.Exit(1)
		}
		defer store.Close()
	}
	// Run-store records keep the run's wall-time decomposition, so spans
	// are collected in memory whenever a store is configured — with or
	// without a -trace-out file.
	var spans *cliutil.SpanCollector
	if store != nil {
		spans = &cliutil.SpanCollector{}
	}

	o := core.Options{
		Iterations:      *iters,
		Restarts:        *restarts,
		Seed:            *seed,
		FixedM:          *fixedM,
		Moves:           moveSet,
		Workers:         *workers,
		Eval:            eval,
		Symmetry:        *symmetry,
		TraceEnergy:     store != nil, // stored records carry the convergence trace
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		Resume:          *resume,
	}
	if *checkpoint != "" {
		var stop func()
		o.Interrupt, stop = cliutil.Interrupt()
		defer stop()
	}
	if *resume {
		nres := *restarts
		if nres < 1 {
			nres = 1
		}
		for i := 0; i < nres; i++ {
			path := opt.RestartCheckpointPath(*checkpoint, nres, i)
			info, err := opt.ReadCheckpointInfo(path)
			switch {
			case errors.Is(err, os.ErrNotExist):
				fmt.Fprintf(os.Stderr, "no checkpoint at %s; restart %d starts fresh\n", path, i)
			case err != nil:
				fmt.Fprintf(os.Stderr, "orpsolve: resume %s: %v\n", path, err)
				os.Exit(1)
			default:
				fmt.Fprintf(os.Stderr, "resuming restart %d from %s: iteration %d/%d, best %d\n",
					info.Restart, path, info.Iter, info.Iterations, info.BestEnergy)
			}
		}
	}
	if obsv := cliutil.NewAnnealObserver(reg, sink, *progress); obsv != nil {
		o.Observer = obsv
	}
	// With -trace-out the run carries a stage-span trace alongside the
	// samples: orptrace renders the waterfall from the same file.
	root := cliutil.TeeTracer("orpsolve", sink, spans).Root("solve")
	o.Span = root
	if *verbose && *restarts <= 1 {
		o.OnProgress = func(iter int, cur, best int64) {
			fmt.Fprintf(os.Stderr, "iter %8d  current %12d  best %12d\n", iter, cur, best)
		}
	}
	solveStart := time.Now()
	var top *core.Topology
	if *repeat > 1 {
		// Multi-seed study: report h-ASPL statistics, keep the best.
		haspls := make([]float64, 0, *repeat)
		for i := 0; i < *repeat; i++ {
			oi := o
			oi.Seed = o.Seed + uint64(i)
			oi.OnProgress = nil
			seedStart, seedCPU := time.Now(), cliutil.CPUSeconds()
			ti, err := core.Solve(*n, *r, oi)
			if err != nil {
				fmt.Fprintf(os.Stderr, "orpsolve: seed %d: %v\n", oi.Seed, err)
				os.Exit(1)
			}
			// One record per seed; the shared root span covers all seeds,
			// so per-seed records carry wall/CPU deltas and no phase
			// decomposition.
			if err := store.AppendRun(func() runstore.Record {
				return solveRecord(ti, *n, *r, oi.Seed, *symmetry, *evalMode, *workers,
					time.Since(seedStart).Seconds(), cliutil.CPUSeconds()-seedCPU, nil)
			}); err != nil {
				fmt.Fprintf(os.Stderr, "orpsolve: store: %v\n", err)
				os.Exit(1)
			}
			haspls = append(haspls, ti.Metrics.HASPL)
			fmt.Fprintf(os.Stderr, "seed %-6d h-ASPL %.6f\n", oi.Seed, ti.Metrics.HASPL)
			if top == nil || ti.Metrics.TotalPath < top.Metrics.TotalPath {
				top = ti
			}
		}
		sum := stats.Summarize(haspls)
		lo, hi := stats.BootstrapCI(haspls, 0.95, 2000, o.Seed)
		fmt.Fprintf(os.Stderr, "h-ASPL over %d seeds: %v\n", *repeat, sum)
		fmt.Fprintf(os.Stderr, "95%% bootstrap CI of the mean: [%.6f, %.6f]\n", lo, hi)
	} else {
		var err error
		top, err = core.Solve(*n, *r, o)
		if errors.Is(err, ckpt.ErrInterrupted) {
			if top != nil {
				fmt.Fprintf(os.Stderr, "interrupted at iteration %d/%d, best h-ASPL so far %.6f\n",
					top.Anneal.Iterations, *iters, top.Metrics.HASPL)
			}
			root.SetS("outcome", "interrupted")
			root.End()
			sink.Close()
			fmt.Fprintf(os.Stderr, "checkpoint saved to %s; rerun with -resume to continue\n", *checkpoint)
			os.Exit(130)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "orpsolve: %v\n", err)
			os.Exit(1)
		}
	}
	root.End()
	if *repeat <= 1 {
		// Single solve: the ended root span yields the run's wall-time
		// decomposition (repeat mode already recorded per seed above).
		if err := store.AppendRun(func() runstore.Record {
			return solveRecord(top, *n, *r, o.Seed, *symmetry, *evalMode, *workers,
				time.Since(solveStart).Seconds(), cliutil.CPUSeconds(),
				runstore.PhasesFromDurations(obs.PhaseDurations(spans.Events())))
		}); err != nil {
			fmt.Fprintf(os.Stderr, "orpsolve: store: %v\n", err)
			os.Exit(1)
		}
	}
	if sink != nil && top.Method == core.Annealed {
		res := top.Anneal
		rate := 0.0
		if res.Proposed > 0 {
			rate = float64(res.Accepted) / float64(res.Proposed)
		}
		secs := time.Since(solveStart).Seconds()
		sink.Emit(obs.Event{T: secs, Kind: obs.KindAnnealDone, F: map[string]float64{
			"iters":         float64(res.Iterations),
			"bestTotalPath": float64(res.Best.TotalPath),
			"bestHASPL":     res.Best.HASPL,
			"acceptRate":    rate,
			"seconds":       secs,
		}})
	}
	// The incremental evaluator's one silent performance downgrade: peek
	// sweeps too large for the row store fall back to recomputation on
	// accept. Surface it so nobody wonders where the moves/s went.
	if skips := top.Anneal.Eval.Inc.PeekStoreSkips; skips > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d peek sweeps exceeded the %d-entry row store and were recomputed on accept (larger graphs than the cache expects; -eval-mode exact avoids the cache)\n",
			skips, hsgraph.MaxPeekRowEntries)
	}
	g := top.Graph
	if *dfs {
		g = topo.RelabelHostsDFS(g)
	}

	fmt.Fprintf(os.Stderr, "method            %v\n", top.Method)
	fmt.Fprintf(os.Stderr, "switches          %d (predicted m_opt %d)\n", top.MUsed, top.MPredicted)
	fmt.Fprintf(os.Stderr, "h-ASPL            %.6f\n", top.Metrics.HASPL)
	fmt.Fprintf(os.Stderr, "diameter          %d\n", top.Metrics.Diameter)
	fmt.Fprintf(os.Stderr, "theorem2 bound    %.6f\n", top.LowerBound)
	fmt.Fprintf(os.Stderr, "continuous Moore  %.6f\n", top.ContinuousMoore)
	fmt.Fprintf(os.Stderr, "host distribution %v\n", g.HostDistribution())

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orpsolve: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := hsgraph.Write(w, g); err != nil {
		fmt.Fprintf(os.Stderr, "orpsolve: %v\n", err)
		os.Exit(1)
	}
}

// solveResult is the result-JSON schema stored with orpsolve records: a
// compact summary of what the solve produced (the graph itself goes to
// stdout/-o, not the store). Deliberately distinct from orpd's result
// schema — that is why CLI records carry no cache key.
type solveResult struct {
	Method          string  `json:"method"`
	N               int     `json:"n"`
	R               int     `json:"r"`
	MUsed           int     `json:"mUsed"`
	MPredicted      int     `json:"mPredicted"`
	HASPL           float64 `json:"haspl"`
	Diameter        int     `json:"diameter"`
	TotalPath       int64   `json:"totalPath"`
	LowerBound      float64 `json:"lowerBound"`
	ContinuousMoore float64 `json:"continuousMoore"`
	Fingerprint     string  `json:"fingerprint"`
}

// solveRecord builds the run-store record for one completed solve. Only
// called via Store.AppendRun, so it never runs when -store is off.
func solveRecord(ti *core.Topology, n, r int, seed uint64, symmetry int, evalMode string, workers int, wall, cpu float64, phases []runstore.Phase) runstore.Record {
	res, _ := json.Marshal(solveResult{
		Method:          fmt.Sprint(ti.Method),
		N:               n,
		R:               r,
		MUsed:           ti.MUsed,
		MPredicted:      ti.MPredicted,
		HASPL:           ti.Metrics.HASPL,
		Diameter:        ti.Metrics.Diameter,
		TotalPath:       ti.Metrics.TotalPath,
		LowerBound:      ti.LowerBound,
		ContinuousMoore: ti.ContinuousMoore,
		Fingerprint:     ti.Graph.Fingerprint().String(),
	})
	rec := runstore.Record{
		Unix:        time.Now().UnixNano(),
		Tool:        "orpsolve",
		Kind:        "anneal",
		Build:       buildinfo.Get().String(),
		Fingerprint: ti.Graph.Fingerprint().String(),
		Seed:        seed,
		N:           n,
		M:           ti.MUsed,
		R:           r,
		Symmetry:    symmetry,
		EvalMode:    evalMode,
		Workers:     workers,
		Metrics: runstore.MetricsOf(ti.Metrics.HASPL, ti.Metrics.Diameter,
			ti.Metrics.Connected, ti.Metrics.TotalPath, ti.Metrics.ReachablePairs),
		Phases:      phases,
		WallSeconds: wall,
		CPUSeconds:  cpu,
		Result:      res,
	}
	if ti.Method == core.Annealed {
		rec.EnergyTrace = ti.Anneal.EnergyTrace
		rec.EnergyTraceStride = ti.Anneal.EnergyTraceStride
	}
	return rec
}
