// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload (a paper-scale core.Solve as orpsolve runs it, or the
// proposed-topology half of Fig. 9 as orpfigures runs it) in a closed
// loop for a fixed window, gates every result for correctness, and
// prints one JSON result line: end-to-end metrics when untraced,
// per-layer metrics when traced. See README.md; run.py builds and
// launches it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupEnv, when set in the environment, makes the process a set-up
// probe: it prepares the workload named in the value, prints "ready" and
// exits. The parent times process start to that line.
const setupEnv = "E2EBENCH_SETUP_PROBE"

// setupReps is how many set-up probes an untraced run launches; setup_s
// is their median. A probe takes a few milliseconds, mostly process
// start, so many of them are needed for a steady median.
const setupReps = 200

func main() {
	if os.Getenv(setupEnv) != "" {
		os.Exit(setupProbe())
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "run seed; every operation's inputs derive from it")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measurement window in seconds (the fixed seeds always complete)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	rep, err := benchmark(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: FAILED:", f)
	}
	out := json.NewEncoder(os.Stdout)
	for _, line := range []any{
		map[string]any{"stamp": rep.stamp},
		map[string]any{"samples": rep.samples},
		rep.res,
	} {
		if err := out.Encode(line); err != nil {
			fatalf("%v", err)
		}
	}
	if !rep.res.Correct {
		os.Exit(1)
	}
}

// report is one invocation's output: the machine and build stamp, the
// raw samples behind every emitted metric, the gate's failures and the
// result line.
type report struct {
	stamp    map[string]any
	samples  samples
	failures []string
	res      result
}

// benchmark prepares and runs one invocation.
func benchmark(cfg config) (report, error) {
	var setupS []float64
	if !cfg.trace {
		var err error
		if setupS, err = measureSetup(cfg, setupReps); err != nil {
			return report{}, err
		}
	}
	p, err := prepare(cfg)
	if err != nil {
		return report{}, err
	}
	rep := run(p, setupS)
	rep.stamp = p.stamp
	return rep, nil
}

// measureSetup launches this executable as a set-up probe reps times and
// returns each probe's time from process start to ready.
func measureSetup(cfg config, reps int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	probe := fmt.Sprintf("%s,%t", cfg.workload, cfg.tiny)
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), setupEnv+"="+probe)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		dt := since(t)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe printed %q, want ready", line)
		}
		out = append(out, dt)
	}
	return out, nil
}

// setupProbe is the probe process's body (see setupEnv).
func setupProbe() int {
	f := strings.Split(os.Getenv(setupEnv), ",")
	if len(f) != 2 {
		fmt.Fprintln(os.Stderr, "e2ebench: malformed", setupEnv)
		return 2
	}
	cfg := config{workload: f[0]}
	tiny, err := strconv.ParseBool(f[1])
	if err == nil {
		cfg.tiny = tiny
		_, err = prepare(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: set-up probe:", err)
		return 2
	}
	fmt.Println("ready")
	return 0
}

// peakRSSMB is this process's peak resident set in MiB. Each run is its
// own process, so no other workload's peak can leak into it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}
