// Command orpfault injects deterministic failures into a host-switch graph
// and reports the degradation: post-failure h-ASPL over surviving pairs,
// disconnected hosts, path stretch, and (with -sweep) a Monte-Carlo
// resilience curve with bootstrap confidence intervals. With -repair it
// re-optimises the degraded graph around the failures and reports how much
// of the lost h-ASPL the repair recovers.
//
// Usage:
//
//	orpfault -model links -frac 0.05 -seed 7 graph.hsg
//	orpfault -sweep -trials 20 -json graph.hsg
//	orpfault -sweep -trials 200 -checkpoint sweep.ckpt [-resume] graph.hsg
//	orpfault -model switches -frac 0.1 -repair -o repaired.hsg graph.hsg
//	orpfault -frac 0.05 -svg degraded.svg graph.hsg
//	orpfault -sweep -store runs/ graph.hsg
//
// With -store every completed run appends one record to the run store in
// that directory (scenario runs as kind "eval", sweeps as kind "sweep",
// both carrying the pristine graph's metrics and the full result JSON);
// query it later with orphist. orpd and orpsolve can share the directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/ckpt"
	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/runstore"
	"repro/internal/vis"
)

func main() {
	var (
		model   = flag.String("model", "links", "failure model: links|switches|bundles|targeted")
		frac    = flag.Float64("frac", 0.05, "failure fraction for single-scenario mode")
		seed    = flag.Uint64("seed", 1, "scenario seed (sweep: base seed)")
		workers = flag.Int("workers", 0, "h-ASPL evaluation shard workers (0 = all cores)")
		jsonOut = flag.Bool("json", false, "machine-readable output (fault.GraphReport schema per graph)")

		sweep  = flag.Bool("sweep", false, "Monte-Carlo sweep over -fracs instead of one scenario")
		fracs  = flag.String("fracs", "", "comma-separated sweep fractions (default 0,0.01,0.02,0.05,0.10,0.15,0.20)")
		trials = flag.Int("trials", 20, "scenarios per fraction in -sweep")

		repair      = flag.Bool("repair", false, "repair the degraded graph (reattach, recable, warm-start anneal)")
		repairIters = flag.Int("repair-iters", 4000, "focused anneal iterations for -repair")
		evalMode    = flag.String("eval-mode", "exact", "repair anneal evaluation: exact|incremental (bit-identical results)")

		svgOut = flag.String("svg", "", "write an SVG of the degraded topology (failures highlighted)")
		out    = flag.String("o", "", "write the degraded (or repaired, with -repair) graph to this file")

		progress    = flag.Bool("progress", false, "print per-trial sweep progress to stderr (-sweep only)")
		traceOut    = flag.String("trace-out", "", "write per-trial sweep telemetry as JSONL events to this file (-sweep only)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while sweeping (e.g. 127.0.0.1:0)")

		checkpoint      = flag.String("checkpoint", "", "write a crash-safe sweep trial ledger to this file (-sweep only)")
		checkpointEvery = flag.Int("checkpoint-every", 0, "flush the ledger every this many completed trials (0 = every trial)")
		resume          = flag.Bool("resume", false, "continue from the -checkpoint ledger, re-running only unfinished trials")

		storeDir = flag.String("store", "", "append one run record per completed run to the run store in this directory (query with orphist)")
	)
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.ExitIfVersion("orpfault", version)
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: orpfault [flags] <graph.hsg | ->")
		os.Exit(2)
	}
	if _, err := cliutil.Workers(*workers); err != nil {
		fmt.Fprintf(os.Stderr, "orpfault: %v\n", err)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "orpfault: -resume needs -checkpoint")
		os.Exit(2)
	}
	if *checkpoint != "" && !*sweep {
		fmt.Fprintln(os.Stderr, "orpfault: -checkpoint only applies to -sweep runs")
		os.Exit(2)
	}
	m, err := fault.ParseModel(*model)
	if err != nil {
		fatal(err)
	}
	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	g, err := hsgraph.Read(in)
	if err != nil {
		fatal(err)
	}
	if err := g.Validate(); err != nil {
		fatal(fmt.Errorf("invalid graph: %w", err))
	}

	var store *runstore.Store
	if *storeDir != "" {
		store, err = runstore.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
	}

	if *sweep {
		runSweep(g, m, *fracs, *trials, *seed, *workers, *jsonOut,
			*progress, *traceOut, *metricsAddr,
			*checkpoint, *checkpointEvery, *resume, store)
		return
	}
	mode, err := opt.ParseEvalMode(*evalMode)
	if err != nil {
		fatal(err)
	}
	runScenario(g, m, *frac, *seed, *workers, *jsonOut, *repair, *repairIters, mode, *svgOut, *out, store)
}

// runSweep prints the Monte-Carlo degradation curve.
func runSweep(g *hsgraph.Graph, m fault.Model, fracSpec string, trials int, seed uint64, workers int, jsonOut bool,
	progress bool, traceOut, metricsAddr string,
	checkpoint string, checkpointEvery int, resume bool, store *runstore.Store) {
	fractions := fault.DefaultFractions()
	if fracSpec != "" {
		fractions = fractions[:0]
		for _, s := range strings.Split(fracSpec, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatal(fmt.Errorf("bad -fracs entry %q: %v", s, err))
			}
			fractions = append(fractions, f)
		}
	}
	so := fault.SweepOptions{
		Model:           m,
		Fractions:       fractions,
		Trials:          trials,
		Seed:            seed,
		Workers:         workers,
		CheckpointPath:  checkpoint,
		CheckpointEvery: checkpointEvery,
		Resume:          resume,
	}
	if checkpoint != "" {
		var stop func()
		so.Interrupt, stop = cliutil.Interrupt()
		defer stop()
	}
	if metricsAddr != "" {
		reg := obs.NewRegistry()
		so.Metrics = fault.NewSweepMetrics(reg)
		srv, err := cliutil.StartMetrics(metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
	}
	openSink := cliutil.OpenSink
	if resume {
		// Continue the interrupted run's event log rather than truncating.
		openSink = cliutil.AppendSink
	}
	sink, err := openSink(traceOut)
	if err != nil {
		fatal(err)
	}
	defer sink.Close()
	// Stage-span trace of the sweep (pristine-eval, trials, aggregate)
	// into the same -trace-out file as the per-trial events; the in-memory
	// collector feeds the run-store record's wall-time decomposition.
	var spans *cliutil.SpanCollector
	if store != nil {
		spans = &cliutil.SpanCollector{}
	}
	root := cliutil.TeeTracer("orpfault", sink, spans).Root("sweep")
	so.Span = root
	if progress || sink != nil {
		so.OnTrial = func(p fault.TrialProgress) {
			if progress {
				fmt.Fprintf(os.Stderr, "trial %3d/%d  frac %.3g #%d  %.3fs  surviving h-ASPL %.6f\n",
					p.Done, p.Total, p.Fraction, p.Trial, p.Seconds, p.Result.SurvivingHASPL)
			}
			sink.Emit(obs.Event{T: p.Seconds, Kind: obs.KindSweepTrial, F: map[string]float64{
				"fraction":       p.Fraction,
				"trial":          float64(p.Trial),
				"done":           float64(p.Done),
				"total":          float64(p.Total),
				"seconds":        p.Seconds,
				"survivingHASPL": p.Result.SurvivingHASPL,
				"stretch":        p.Result.Stretch,
				"reachableFrac":  p.Result.ReachableFrac,
				"failedLinks":    float64(p.Result.FailedLinks),
				"failedSwitches": float64(p.Result.FailedSwitches),
			}})
		}
	}
	sweepStart := time.Now()
	points, err := fault.Sweep(g, so)
	if errors.Is(err, ckpt.ErrInterrupted) {
		root.SetS("outcome", "interrupted")
		root.End()
		sink.Close()
		fmt.Fprintf(os.Stderr, "interrupted: trial ledger saved to %s; rerun with -resume to continue\n", checkpoint)
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}
	root.End()
	sink.Emit(obs.Event{T: time.Since(sweepStart).Seconds(), Kind: obs.KindSweepDone, F: map[string]float64{
		"trials":  float64(len(fractions) * so.Trials),
		"seconds": time.Since(sweepStart).Seconds(),
	}})
	pristine := g.EvaluateParallel(workers)
	report := sweepReport{
		Graph:  fault.NewGraphReport(g, pristine),
		Model:  m.String(),
		Trials: trials,
		Seed:   seed,
		Points: points,
	}
	// The record keys the sweep by the pristine graph (its cell and
	// metrics); the degradation curve itself rides in the result JSON.
	if err := store.AppendRun(func() runstore.Record {
		res, _ := json.Marshal(report)
		return runstore.Record{
			Unix:        time.Now().UnixNano(),
			Tool:        "orpfault",
			Kind:        "sweep",
			Build:       buildinfo.Get().String(),
			Fingerprint: g.Fingerprint().String(),
			Seed:        seed,
			N:           g.Order(),
			M:           g.Switches(),
			R:           g.Radix(),
			Workers:     workers,
			Metrics: runstore.MetricsOf(pristine.HASPL, pristine.Diameter,
				pristine.Connected, pristine.TotalPath, pristine.ReachablePairs),
			Phases:      runstore.PhasesFromDurations(obs.PhaseDurations(spans.Events())),
			WallSeconds: time.Since(sweepStart).Seconds(),
			CPUSeconds:  cliutil.CPUSeconds(),
			Result:      res,
		}
	}); err != nil {
		fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("resilience sweep: n=%d m=%d r=%d, model=%s, %d trials/point, seed %d\n",
		g.Order(), g.Switches(), g.Radix(), m, trials, seed)
	fmt.Printf("pristine h-ASPL %.6f, diameter %d\n\n", pristine.HASPL, pristine.Diameter)
	fmt.Printf("%-6s  %-22s  %-8s  %-9s  %-9s  %s\n",
		"frac", "surviving h-ASPL (95% CI)", "stretch", "reach", "conn", "disc hosts (mean)")
	for _, p := range points {
		fmt.Printf("%-6.3g  %8.5f [%.5f,%.5f]  %-8.4f  %-9.5f  %3d/%-3d   %.2f\n",
			p.Fraction, p.SurvivingHASPL.Mean, p.HASPLLo, p.HASPLHi,
			p.Stretch.Mean, p.ReachableFrac.Mean, p.ConnectedTrials, p.Trials,
			p.DisconnectedHosts.Mean)
	}
}

// scenarioReport is the single-scenario result schema: what -json prints
// and what a -store record carries as its result bytes.
type scenarioReport struct {
	Model             string            `json:"model"`
	Fraction          float64           `json:"fraction"`
	Seed              uint64            `json:"seed"`
	Pristine          fault.GraphReport `json:"pristine"`
	Degraded          fault.GraphReport `json:"degraded"`
	FailedLinks       int               `json:"failedLinks"`
	FailedSwitches    int               `json:"failedSwitches"`
	DetachedHosts     int               `json:"detachedHosts"`
	DisconnectedHosts int               `json:"disconnectedHosts"`
	Stretch           float64           `json:"stretch"`

	Repaired *fault.GraphReport `json:"repaired,omitempty"`
}

// sweepReport is the sweep result schema (-json and -store).
type sweepReport struct {
	Graph  fault.GraphReport  `json:"graph"`
	Model  string             `json:"model"`
	Trials int                `json:"trials"`
	Seed   uint64             `json:"seed"`
	Points []fault.SweepPoint `json:"points"`
}

// runScenario samples one failure scenario, measures it, and optionally
// repairs the degraded graph and/or writes renderings.
func runScenario(g *hsgraph.Graph, m fault.Model, frac float64, seed uint64, workers int,
	jsonOut, doRepair bool, repairIters int, evalMode opt.EvalMode, svgOut, out string,
	store *runstore.Store) {
	start, cpu0 := time.Now(), cliutil.CPUSeconds()
	sc, err := fault.Sample(g, m, frac, seed)
	if err != nil {
		fatal(err)
	}
	d, err := fault.Apply(g, sc)
	if err != nil {
		fatal(err)
	}
	ev := hsgraph.NewEvaluator(workers)
	defer ev.Close()
	pristine := ev.Evaluate(g)
	res := fault.Measure(pristine, d, ev)

	var repaired *hsgraph.Graph
	var repRes opt.RepairResult
	if doRepair {
		repaired, repRes, err = opt.Repair(d.Graph, sc.Switches, opt.RepairOptions{
			Iterations:  repairIters,
			Seed:        seed,
			Workers:     workers,
			MaxNewLinks: d.FailedLinks,
			Eval:        evalMode,
		})
		if err != nil {
			fatal(err)
		}
	}

	rep := scenarioReport{
		Model:             m.String(),
		Fraction:          frac,
		Seed:              seed,
		Pristine:          fault.NewGraphReport(g, pristine),
		Degraded:          fault.NewGraphReport(d.Graph, res.Degraded),
		FailedLinks:       res.FailedLinks,
		FailedSwitches:    res.FailedSwitches,
		DetachedHosts:     res.DetachedHosts,
		DisconnectedHosts: res.DisconnectedHosts,
		Stretch:           res.Stretch,
	}
	if doRepair {
		rr := fault.NewGraphReport(repaired, repRes.After)
		rep.Repaired = &rr
	}
	// Like the sweep record: keyed by the pristine graph, with the full
	// degradation report in the result bytes.
	if err := store.AppendRun(func() runstore.Record {
		resJSON, _ := json.Marshal(rep)
		return runstore.Record{
			Unix:        time.Now().UnixNano(),
			Tool:        "orpfault",
			Kind:        "eval",
			Build:       buildinfo.Get().String(),
			Fingerprint: g.Fingerprint().String(),
			Seed:        seed,
			N:           g.Order(),
			M:           g.Switches(),
			R:           g.Radix(),
			Workers:     workers,
			Metrics: runstore.MetricsOf(pristine.HASPL, pristine.Diameter,
				pristine.Connected, pristine.TotalPath, pristine.ReachablePairs),
			WallSeconds: time.Since(start).Seconds(),
			CPUSeconds:  cliutil.CPUSeconds() - cpu0,
			Result:      resJSON,
		}
	}); err != nil {
		fatal(err)
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("failure scenario  model=%s frac=%g seed=%d\n", m, frac, seed)
		fmt.Printf("failed            %d links, %d switches (%d hosts detached)\n",
			res.FailedLinks, res.FailedSwitches, res.DetachedHosts)
		fmt.Printf("pristine h-ASPL   %.6f (diameter %d)\n", pristine.HASPL, pristine.Diameter)
		if res.Degraded.Connected {
			fmt.Printf("degraded h-ASPL   %.6f (diameter %d)\n", res.Degraded.HASPL, res.Degraded.Diameter)
		} else {
			fmt.Printf("degraded          DISCONNECTED: %d hosts unreachable, surviving h-ASPL %.6f (%.4f of pairs reachable)\n",
				res.DisconnectedHosts, res.SurvivingHASPL, res.ReachableFrac)
		}
		fmt.Printf("stretch           %.4f\n", res.Stretch)
		if doRepair {
			printRepair(res, repRes)
		}
	}

	if svgOut != "" {
		writeSVG(svgOut, d)
	}
	if out != "" {
		final := d.Graph
		if doRepair {
			final = repaired
		}
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		if err := hsgraph.Write(f, final); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

// printRepair reports the repair outcome, including how much of the
// h-ASPL degradation it recovered.
func printRepair(res fault.Result, rr opt.RepairResult) {
	fmt.Printf("repair            %d hosts reattached, %d links added, %d/%d anneal moves kept\n",
		rr.HostsReattached, rr.LinksAdded, rr.Accepted, rr.Proposed)
	if !rr.After.Connected {
		fmt.Printf("repaired          still disconnected\n")
		return
	}
	fmt.Printf("repaired h-ASPL   %.6f (diameter %d)\n", rr.After.HASPL, rr.After.Diameter)
	if res.Degraded.Connected && res.Pristine.HASPL > 0 {
		degradation := res.Degraded.HASPL - res.Pristine.HASPL
		recovered := res.Degraded.HASPL - rr.After.HASPL
		if degradation > 0 {
			fmt.Printf("recovered         %.1f%% of the h-ASPL degradation\n", 100*recovered/degradation)
		}
	}
}

// writeSVG renders the degraded topology with the failures highlighted.
func writeSVG(path string, d *fault.Degraded) {
	links := make([][2]int, len(d.Scenario.Links))
	for i, l := range d.Scenario.Links {
		links[i] = [2]int{int(l[0]), int(l[1])}
	}
	switches := make([]int, len(d.Scenario.Switches))
	for i, s := range d.Scenario.Switches {
		switches[i] = int(s)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := vis.WriteSVG(f, d.Graph, vis.Options{
		ShowLabels:     true,
		FailedLinks:    links,
		FailedSwitches: switches,
	}); err != nil {
		fatal(err)
	}
	f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "orpfault: %v\n", err)
	os.Exit(1)
}
