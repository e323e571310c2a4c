package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// TestMain lets the test binary serve as its own set-up probe, as the
// benchmark binary does (see measureSetup).
func TestMain(m *testing.M) {
	if os.Getenv(setupEnv) != "" {
		os.Exit(setupProbe())
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestContractMatchesCode keeps BENCHMARK.json and the metric tables in
// lock step.
func TestContractMatchesCode(t *testing.T) {
	bf := readBenchmarkJSON(t)
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
		}
		for i, d := range code {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	names := workloadNames()
	if len(bf.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(bf.Workloads), len(names))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads(false)[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, twice
// on one seed and once on another. Every metric must be emitted with its
// unit, every run must pass the correctness gate, the deterministic
// metrics must repeat exactly, and the pipeline's stage timers must
// account for its wall time.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, tiny: true, trace: trace}
			first := smokeRun(t, cfg)
			again := smokeRun(t, cfg)
			for metric := range deterministic {
				a, ok := first.Metrics[metric]
				if !ok {
					continue // the other mode's metric
				}
				if b := again.Metrics[metric]; a != b {
					t.Errorf("%s trace=%v: %s = %v then %v", name, trace, metric, a.Value, b.Value)
				}
			}
			if trace && name == "fig9-pipeline" {
				if c := first.Metrics["bench.span_coverage"].Value; c < 0.9 || c > 1.1 {
					t.Errorf("fig9-pipeline stage timers cover %.3f of the pipeline wall time", c)
				}
			}
			cfg.seed = 2
			smokeRun(t, cfg)
		}
	}
}

func smokeRun(t *testing.T, cfg config) result {
	t.Helper()
	rep, err := benchmark(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	res := rep.res
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d trace=%v: correct=%v attempted=%d failed=%d %v",
			cfg.workload, cfg.seed, cfg.trace, res.Correct, res.Attempted, res.Failed, rep.failures)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", cfg.workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", cfg.workload, d.name, m, d.unit)
		}
		if !cfg.trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", cfg.workload, d.name, m.Value)
		}
	}
	return res
}

func TestRefusesMoreWorkersThanCPUs(t *testing.T) {
	nproc := runtime.NumCPU()
	if err := checkWorkers(nproc+1, nproc); err == nil {
		t.Fatal("checkWorkers accepted more evaluation workers than CPUs")
	}
	if err := checkWorkers(min(2, nproc), nproc); err != nil {
		t.Fatal(err)
	}
}
