package cliutil

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/opt"
)

func TestWorkers(t *testing.T) {
	if _, err := Workers(-1); err == nil || !strings.Contains(err.Error(), "-workers must be >= 0") {
		t.Fatalf("Workers(-1) = %v, want validation error", err)
	}
	for _, n := range []int{0, 1, 16} {
		got, err := Workers(n)
		if err != nil || got != n {
			t.Fatalf("Workers(%d) = %d, %v", n, got, err)
		}
	}
}

func TestStartMetricsEmptyAddr(t *testing.T) {
	srv, err := StartMetrics("", obs.NewRegistry())
	if srv != nil || err != nil {
		t.Fatalf("StartMetrics(\"\") = %v, %v; want nil, nil", srv, err)
	}
}

func TestStartMetricsServes(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cliutil_test_total", "help").Inc()
	srv, err := StartMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "cliutil_test_total 1") {
		t.Fatalf("exposition missing counter:\n%s", buf[:n])
	}
}

func TestOpenSinkEmptyPathAndNilSafety(t *testing.T) {
	s, err := OpenSink("")
	if s != nil || err != nil {
		t.Fatalf("OpenSink(\"\") = %v, %v; want nil, nil", s, err)
	}
	// All methods must be no-ops on the nil sink the CLIs carry when
	// -trace-out is unset.
	if err := s.Emit(obs.Event{Kind: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSinkTruncatesAndAppendSinkContinues covers both sink modes —
// the regression here is that every caller used to get os.Create
// semantics, so a -resume wiped the interrupted run's event log.
func TestOpenSinkTruncatesAndAppendSinkContinues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.jsonl")

	s1, err := OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	s1.Emit(obs.Event{Kind: "first"})
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Append mode keeps what is there and adds no second header.
	s2, err := AppendSink(path)
	if err != nil {
		t.Fatal(err)
	}
	s2.Emit(obs.Event{Kind: "second"})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	evs := readEvents(t, path)
	kinds := []string{}
	for _, e := range evs {
		kinds = append(kinds, string(e.Kind))
	}
	if len(evs) != 3 || evs[0].Kind != obs.KindHeader || evs[1].Kind != "first" || evs[2].Kind != "second" {
		t.Fatalf("appended stream = %v, want [header first second]", kinds)
	}

	// Append mode on a missing or empty file starts a fresh stream with
	// exactly one header.
	freshPath := filepath.Join(t.TempDir(), "fresh.jsonl")
	s3, err := AppendSink(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	s3.Emit(obs.Event{Kind: "only"})
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	if evs := readEvents(t, freshPath); len(evs) != 2 || evs[0].Kind != obs.KindHeader || evs[1].Kind != "only" {
		t.Fatalf("fresh append stream wrong: %+v", evs)
	}
	if s, err := AppendSink(""); s != nil || err != nil {
		t.Fatalf("AppendSink(\"\") = %v, %v; want nil, nil", s, err)
	}

	// Truncate mode starts over.
	s4, err := OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s4.Close(); err != nil {
		t.Fatal(err)
	}
	if evs := readEvents(t, path); len(evs) != 1 || evs[0].Kind != obs.KindHeader {
		t.Fatalf("truncated stream wrong: %+v", evs)
	}
}

func readEvents(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestInterruptArmsOnSignal delivers a real SIGINT to the test process;
// the installed handler must swallow it (the process survives) and arm
// the flag. Stopping the handler releases it, so running the test again
// in the same process (-count=2) sees a fresh first signal, not the
// abort-on-second-signal path.
func TestInterruptArmsOnSignal(t *testing.T) {
	flag, stop := Interrupt()
	defer stop()
	if flag.Load() {
		t.Fatal("interrupt flag armed before any signal")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !flag.Load() {
		if time.Now().After(deadline) {
			t.Fatal("interrupt flag not armed within 5s of SIGINT")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAnnealObserverSurfaces(t *testing.T) {
	if NewAnnealObserver(nil, nil, false) != nil {
		t.Fatal("all-off observer should be nil so the annealer stays on its zero-cost path")
	}

	path := filepath.Join(t.TempDir(), "e.jsonl")
	sink, err := OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ao := NewAnnealObserver(reg, sink, false)
	ao.ObserveAnneal(opt.AnnealSample{
		Restart: 1, Iter: 500, Iterations: 1000, Temp: 3.5,
		Current: 120, Best: 110, Accepted: 30, Proposed: 50,
		Moves:       opt.MoveCounters{SwingAttempts: 25, SwingAccepts: 15, CounterAttempts: 25, CounterAccepts: 15},
		MovesPerSec: 1e5, Elapsed: 0.25,
		Eval: opt.EvalStats{Inc: hsgraph.IncStats{Syncs: 4, Peeks: 9, PeekSources: 1152}},
	})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// Gauges mirror the sample.
	vals := map[string]float64{}
	for _, m := range reg.Snapshot() {
		vals[m.Name] = m.Gauge
	}
	if vals["anneal_best_energy"] != 110 || vals["anneal_temperature"] != 3.5 {
		t.Fatalf("gauges wrong: %v", vals)
	}
	if got := vals["anneal_accept_rate"]; got != 0.6 {
		t.Fatalf("accept rate gauge %v, want 0.6", got)
	}

	// The JSONL stream carries the schema header and a well-formed sample.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != obs.KindHeader || evs[1].Kind != obs.KindAnnealSample {
		t.Fatalf("events %+v", evs)
	}
	s := evs[1]
	if s.T != 0.25 || s.F["iter"] != 500 || s.F["best"] != 110 || s.F["restart"] != 1 ||
		s.F["swingAccepts"] != 15 || s.F["counterAttempts"] != 25 ||
		s.F["incSyncs"] != 4 || s.F["incPeeks"] != 9 || s.F["incPeekSources"] != 1152 {
		t.Fatalf("sample event wrong: %+v", s)
	}
}
