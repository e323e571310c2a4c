package repro

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perf"
)

// runToolExit runs a built binary like runTool but returns the exit code
// instead of failing on nonzero status, for tests that assert exit-code
// contracts.
func runToolExit(t *testing.T, tool string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", tool, args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

func TestCLIBenchList(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	out, _ := runTool(t, "orpbench", nil, "-list")
	for _, want := range []string{"eval/sharded/", "anneal/2-neighbor-swing/", "simnet/npb/CG-S-32", "fault/sweep/links/", "ckpt/encode/"} {
		if !strings.Contains(out, want) {
			t.Fatalf("orpbench -list missing %q:\n%s", want, out)
		}
	}
	// Usage errors take exit 2, distinct from regressions (3).
	if _, _, code := runToolExit(t, "orpbench", "-compare", "only-one.json"); code != 2 {
		t.Fatalf("orpbench -compare with one arg: exit %d, want 2", code)
	}
	if _, _, code := runToolExit(t, "orpbench", "-run", "no/such/workload"); code != 2 {
		t.Fatalf("orpbench with empty workload match: exit %d, want 2", code)
	}
}

// syntheticReport is a report stamped with this machine and build whose
// workloads carry the given per-repetition samples (scaled by scale), so
// the comparator's verdicts depend on the samples alone, never on how
// busy the host was while a live measurement ran.
func syntheticReport(t *testing.T, scale float64, samples map[string][]float64) *perf.Report {
	t.Helper()
	rep := perf.NewReport(true)
	for _, name := range []string{"ckpt/encode/n=1024,r=24", "fault/sweep/links/n=256,r=10"} {
		xs := make([]float64, len(samples[name]))
		for i, x := range samples[name] {
			xs[i] = x * scale
		}
		med, mad := perf.MedianMAD(xs)
		rep.Workloads = append(rep.Workloads, perf.WorkloadResult{
			Name: name, Family: strings.SplitN(name, "/", 2)[0],
			Reps: len(xs), SamplesNs: xs, MedianNs: med, MADNs: mad,
		})
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCLIBenchCompareGate is the CLI half of the acceptance contract:
// two reports of the same build that differ only by run-to-run noise
// compare clean (exit 0), and a >=20% slowdown makes -compare exit 3.
// The reports are synthetic, so the verdicts are deterministic.
func TestCLIBenchCompareGate(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	write := func(name string, rep *perf.Report) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := rep.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Two back-to-back runs: the second reads 3% slower on ckpt and 2%
	// faster on the sweep with its own scatter, well inside the default
	// 10% floor and the 6-MAD noise threshold.
	a := write("a.json", syntheticReport(t, 1, map[string][]float64{
		"ckpt/encode/n=1024,r=24":      {1.81e6, 1.84e6, 1.79e6, 1.83e6, 1.80e6},
		"fault/sweep/links/n=256,r=10": {4.1e8, 4.0e8, 4.2e8, 4.1e8, 4.05e8},
	}))
	second := map[string][]float64{
		"ckpt/encode/n=1024,r=24":      {1.86e6, 1.88e6, 1.85e6, 1.87e6, 1.89e6},
		"fault/sweep/links/n=256,r=10": {4.0e8, 3.95e8, 4.1e8, 4.05e8, 4.0e8},
	}
	b := write("b.json", syntheticReport(t, 1, second))
	if out, stderr, code := runToolExit(t, "orpbench", "-compare", a, b); code != 0 {
		t.Fatalf("back-to-back compare: exit %d\n%s%s", code, out, stderr)
	}

	// The second report with every sample 50% slower — the moral
	// equivalent of a regressed commit — and the gate must fire.
	// Comparing b against its own scaled copy pins the ratio at exactly
	// 1.5. The comparator options are the ones CI-noise callers pin; the
	// 20%-slowdown-at-default-thresholds contract is proven on a quiet
	// workload by internal/perf's TestInjectedSlowdownFiresGate.
	slow := write("slow.json", syntheticReport(t, 1.5, second))
	gate := []string{"-compare", "-mad-scale", "2", "-min-rel", "0.15"}
	out, stderr, code := runToolExit(t, "orpbench", append(gate, b, slow)...)
	if code != 3 {
		t.Fatalf("compare against 50%% slowdown: exit %d, want 3\n%s%s", code, out, stderr)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("compare output missing REGRESSION verdict:\n%s", out)
	}
	// A relaxed CI-style threshold scale (4 x 0.15 floor = 60% > 50%)
	// waves the same delta through.
	if _, stderr, code := runToolExit(t, "orpbench", append(gate, "-threshold-scale", "4", b, slow)...); code != 0 {
		t.Fatalf("relaxed compare: exit %d\n%s", code, stderr)
	}
}

// TestCLIVersionFlag: every command reports the shared build identity.
func TestCLIVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	for _, tool := range []string{"orpsolve", "orpeval", "orptopo", "orpsim", "orpgolf", "orptraffic", "orpfigures", "orpmap", "orpfault", "orptrace", "orpbench"} {
		out, _, code := runToolExit(t, tool, "-version")
		if code != 0 {
			t.Fatalf("%s -version: exit %d", tool, code)
		}
		if !strings.HasPrefix(out, tool+": repro") {
			t.Fatalf("%s -version output %q, want prefix %q", tool, out, tool+": repro")
		}
	}
}
