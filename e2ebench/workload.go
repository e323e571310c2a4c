package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/bounds"
	"repro/internal/buildinfo"
	"repro/internal/npb"
	"repro/internal/opt"
)

// workload is one benchmark input set. Solve workloads run core.Solve as
// orpsolve does; the pipeline workload runs the proposed-topology half
// of Fig. 9 as orpfigures does.
type workload struct {
	name  string
	n, r  int
	sym   int // cyclic symmetry order (0 = none)
	eval  opt.EvalMode
	moves opt.MoveSet
	iters int
	// fixedSeeds is how many leading seeds of a run feed the
	// deterministic metrics; a run always completes at least these and
	// then keeps going, for timing samples only, until its window ends.
	fixedSeeds int
	pipeline   bool
	// kernels are the simulated NPB runs: all three on the pipeline, MG
	// alone, on each fixed seed's topology, for solves.
	kernels []kernel
	ranks   int
	// parts is the partition sweep P = parts[0]..parts[1] (pipeline only).
	parts [2]int
}

type kernel struct {
	name  string
	class npb.Class
}

// workloads returns the benchmark's workloads at paper scale, or at a
// tiny scale (seconds in total) for the smoke test.
func workloads(tiny bool) map[string]workload {
	fig9 := []kernel{{"CG", npb.ClassB}, {"IS", npb.ClassA}, {"MG", npb.ClassB}}
	mg := []kernel{{"MG", npb.ClassB}}
	ws := []workload{
		{name: "solve-exact", n: 1024, r: 15, eval: opt.EvalExact, moves: opt.TwoNeighborSwing,
			iters: 10000, fixedSeeds: 3, kernels: mg, ranks: 256},
		{name: "solve-incremental", n: 4096, r: 12, eval: opt.EvalIncremental, moves: opt.TwoNeighborSwing,
			iters: 1000, fixedSeeds: 3, kernels: mg, ranks: 256},
		{name: "solve-symmetric", n: 4096, r: 12, sym: 4, eval: opt.EvalSymmetric, moves: opt.TwoNeighborSwing,
			iters: 1000, fixedSeeds: 3, kernels: mg, ranks: 256},
		// orpfigures solves with core.Options{Iterations, Seed} and so
		// with the zero MoveSet; mirror it rather than the core default.
		{name: "fig9-pipeline", n: 1024, r: 15, eval: opt.EvalExact, moves: opt.MoveSet(0),
			iters: 8000, fixedSeeds: 4, pipeline: true, kernels: fig9, ranks: 256, parts: [2]int{2, 16}},
	}
	out := make(map[string]workload, len(ws))
	for _, w := range ws {
		if tiny {
			w.n, w.r, w.ranks = 128, 8, 16
			w.iters, w.fixedSeeds = 300, 2
			w.kernels = append([]kernel(nil), w.kernels...)
			for i := range w.kernels {
				w.kernels[i].class = npb.ClassS
			}
			if w.pipeline {
				w.parts = [2]int{2, 4}
			}
		}
		out[w.name] = w
	}
	return out
}

func workloadNames() []string {
	var names []string
	for name := range workloads(false) {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
}

// plan is everything prepared before the first timed operation.
type plan struct {
	cfg     config
	w       workload
	workers int
	lower   float64 // Theorem 2 h-ASPL bound
	diamLB  int     // Theorem 1 diameter bound
	specs   []*npb.Spec
	// classIters is each spec's class iteration count before it is cut
	// to one simulated iteration; Mop/s scale NominalOps by it.
	classIters []int
	stamp      map[string]any
}

// prepare resolves the workload and builds its inputs: the set-up that
// setup_s times.
func prepare(cfg config) (*plan, error) {
	w, ok := workloads(cfg.tiny)[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	nproc := runtime.NumCPU()
	workers := min(2, nproc)
	if err := checkWorkers(workers, nproc); err != nil {
		return nil, err
	}
	p := &plan{
		cfg:     cfg,
		w:       w,
		workers: workers,
		lower:   bounds.HASPLLowerBound(w.n, w.r),
		diamLB:  bounds.DiameterLowerBound(w.n, w.r),
	}
	for _, k := range w.kernels {
		spec, err := npb.New(k.name, k.class, w.ranks)
		if err != nil {
			return nil, err
		}
		p.classIters = append(p.classIters, spec.Iterations)
		spec.Iterations = 1
		p.specs = append(p.specs, spec)
	}
	bi := buildinfo.Get()
	p.stamp = map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"tiny":       cfg.tiny,
		"n":          w.n,
		"r":          w.r,
		"iterations": w.iters,
		"workers":    workers,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": bi.GoVersion,
		"revision":   bi.Revision,
		"dirty":      nil, // unknown without VCS data
	}
	if bi.Revision != "" {
		p.stamp["dirty"] = bi.Dirty
	}
	return p, nil
}

// checkWorkers refuses more evaluation workers than CPUs, so no run
// oversubscribes the machine.
func checkWorkers(workers, nproc int) error {
	if workers < 1 || workers > nproc {
		return fmt.Errorf("refusing %d evaluation workers on %d CPUs", workers, nproc)
	}
	return nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// seedAt derives the i-th operation's seed from the run seed (a
// splitmix64 step), so runs with different seeds share no inputs.
func seedAt(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
