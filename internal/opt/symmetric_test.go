package opt

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/rng"
	"repro/internal/topo"
)

// symStart returns the canonical symmetric test instance: the same shape
// as randomGraph(48, 12, 8, ...) but closed under a cyclic action of
// order 4.
func symStart(t *testing.T, sym int, seed uint64) *hsgraph.Graph {
	t.Helper()
	g, err := topo.RandomSymmetric(48, 12, 8, sym, seed)
	if err != nil {
		t.Fatalf("RandomSymmetric: %v", err)
	}
	return g
}

// symRunWithTrajectory is runWithTrajectory over a symmetric start.
func symRunWithTrajectory(t *testing.T, start *hsgraph.Graph, o Options, seed uint64) ([]byte, Result, []progressPoint) {
	t.Helper()
	var traj []progressPoint
	o.Seed = seed
	o.ReportEvery = 1
	o.OnProgress = func(iter int, current, best int64) {
		traj = append(traj, progressPoint{iter, current, best})
	}
	g, res, err := Anneal(start.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}
	return graphBytes(t, g), res, traj
}

// TestSymmetricEvalModesProduceIdenticalRuns extends the evaluation
// stack's headline property to symmetric runs: with Options.Symmetry set,
// every mode — exact, incremental and the orbit-quotient symmetric mode —
// produces the identical accepted-move sequence, Result and best graph,
// at every worker count.
func TestSymmetricEvalModesProduceIdenticalRuns(t *testing.T) {
	cases := []struct {
		name  string
		sym   int
		moves MoveSet
		iters int
	}{
		{"2ns-sym4", 4, TwoNeighborSwing, 400},
		{"swap-sym4", 4, SwapOnly, 400},
		{"swing-sym4", 4, SwingOnly, 300},
		{"2ns-sym3", 3, TwoNeighborSwing, 300},
		{"2ns-sym2", 2, TwoNeighborSwing, 300},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, tc := range cases {
		start := symStart(t, tc.sym, 5)
		base := Options{Iterations: tc.iters, Moves: tc.moves, Symmetry: tc.sym}
		exactO := base
		exactO.Eval = EvalExact
		wantG, wantRes, wantTraj := symRunWithTrajectory(t, start, exactO, 7)
		for _, mode := range []EvalMode{EvalIncremental, EvalSymmetric} {
			for _, workers := range []int{1, 3} {
				o := base
				o.Eval = mode
				o.Workers = workers
				gotG, gotRes, gotTraj := symRunWithTrajectory(t, start, o, 7)
				ctx := tc.name + "/" + mode.String()
				if !bytes.Equal(wantG, gotG) {
					t.Fatalf("%s workers=%d: best graphs differ from exact mode", ctx, workers)
				}
				gotRes.Eval = EvalStats{} // diagnostics differ by mode by design
				if !reflect.DeepEqual(wantRes, gotRes) {
					t.Fatalf("%s workers=%d: results differ:\nexact %+v\ngot   %+v", ctx, workers, wantRes, gotRes)
				}
				if !reflect.DeepEqual(wantTraj, gotTraj) {
					for i := range wantTraj {
						if i < len(gotTraj) && wantTraj[i] != gotTraj[i] {
							t.Fatalf("%s workers=%d: trajectories fork at iteration %d: exact %+v, got %+v",
								ctx, workers, wantTraj[i].iter, wantTraj[i], gotTraj[i])
						}
					}
					t.Fatalf("%s workers=%d: trajectory lengths differ: %d vs %d", ctx, workers, len(wantTraj), len(gotTraj))
				}
			}
		}
		// The whole run stayed inside the symmetric subspace.
		g, _, err := Anneal(start.Clone(), exactO)
		if err != nil {
			t.Fatal(err)
		}
		if err := hsgraph.VerifySymmetric(g, tc.sym); err != nil {
			t.Fatalf("%s: best graph left the symmetric subspace: %v", tc.name, err)
		}
	}
}

// TestIncrementalQuotientFollowsSymmetry: the cache-backed modes quotient
// whenever Symmetry is set, so EvalIncremental at Symmetry 4 is the
// orbit-quotient cache — its one row sweep is the attach of m/4
// representative rows (every accepted move commits its stored peek rows)
// — and runs EvalSymmetric's trajectory with EvalSymmetric's counters.
func TestIncrementalQuotientFollowsSymmetry(t *testing.T) {
	const sym = 4
	start := symStart(t, sym, 5)
	for _, moves := range []MoveSet{TwoNeighborSwing, SwapOnly} {
		base := Options{Iterations: 300, Moves: moves, Symmetry: sym}
		so, io := base, base
		so.Eval, io.Eval = EvalSymmetric, EvalIncremental
		wantG, wantRes, wantTraj := symRunWithTrajectory(t, start, so, 7)
		gotG, gotRes, gotTraj := symRunWithTrajectory(t, start, io, 7)
		if got, want := gotRes.Eval.Inc.SweptSources, int64(start.Switches()/sym); got != want {
			t.Fatalf("%v: incremental swept %d rows, want the %d orbit representatives", moves, got, want)
		}
		if !bytes.Equal(wantG, gotG) || !reflect.DeepEqual(wantTraj, gotTraj) {
			t.Fatalf("%v: incremental run left the symmetric run's trajectory", moves)
		}
		if !reflect.DeepEqual(wantRes, gotRes) {
			t.Fatalf("%v: results differ:\nsymmetric   %+v\nincremental %+v", moves, wantRes, gotRes)
		}
	}
}

// TestSymmetricKillResume: a symmetric-mode run interrupted at an
// arbitrary iteration and resumed from its v3 snapshot — including with a
// different worker count — is bit-identical to the uninterrupted run.
func TestSymmetricKillResume(t *testing.T) {
	const sym = 4
	start := symStart(t, sym, 5)
	o := ckptBaseOptions()
	o.Eval = EvalSymmetric
	o.Symmetry = sym
	wantG, wantRes, err := Anneal(start.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		killAt, killWorkers, resumeWorkers int
	}{
		{1, 1, 2},
		{137, 1, 3},
		{517, 3, 1},
		{799, 2, 2},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "symmetric.ckpt")
		var stop atomic.Bool
		ko := ckptBaseOptions()
		ko.Eval = EvalSymmetric
		ko.Symmetry = sym
		ko.CheckpointPath = path
		ko.CheckpointEvery = 100
		ko.Interrupt = &stop
		ko.Workers = tc.killWorkers
		ko.OnProgress = func(iter int, current, best int64) {
			if iter == tc.killAt {
				stop.Store(true)
			}
		}
		if _, _, err := Anneal(start.Clone(), ko); !errors.Is(err, ckpt.ErrInterrupted) {
			t.Fatalf("killAt=%d: want ErrInterrupted, got %v", tc.killAt, err)
		}

		ro := ckptBaseOptions()
		ro.Eval = EvalSymmetric
		ro.Symmetry = sym
		ro.CheckpointPath = path
		ro.Resume = true
		ro.Workers = tc.resumeWorkers
		gotG, gotRes, err := Anneal(start.Clone(), ro)
		if err != nil {
			t.Fatalf("killAt=%d: resume: %v", tc.killAt, err)
		}
		requireIdentical(t, wantG, gotG, wantRes, gotRes)
	}
}

// TestResumeFingerprintsSymmetry: the symmetry order is as
// stream-defining as the move set, so the v3 snapshot fingerprints it.
// A mismatched explicit order refuses to resume; the zero sentinel adopts
// the stored order and reproduces the uninterrupted run bit-identically.
func TestResumeFingerprintsSymmetry(t *testing.T) {
	const sym = 4
	start := symStart(t, sym, 5)

	// Uninterrupted reference: symmetric moves in EvalIncremental, which
	// accepts every Symmetry (so the resume side can vary it).
	o := ckptBaseOptions()
	o.Eval = EvalIncremental
	o.Symmetry = sym
	wantG, wantRes, err := Anneal(start.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted half.
	path := filepath.Join(t.TempDir(), "sym.ckpt")
	var stop atomic.Bool
	ko := ckptBaseOptions()
	ko.Eval = EvalIncremental
	ko.Symmetry = sym
	ko.CheckpointPath = path
	ko.CheckpointEvery = 100
	ko.Interrupt = &stop
	ko.OnProgress = func(iter int, current, best int64) {
		if iter == 300 {
			stop.Store(true)
		}
	}
	if _, _, err := Anneal(start.Clone(), ko); !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}

	resume := func(symmetry int) (*hsgraph.Graph, Result, error) {
		ro := ckptBaseOptions()
		ro.Eval = EvalIncremental
		ro.Symmetry = symmetry
		ro.CheckpointPath = path
		ro.Resume = true
		return Anneal(start.Clone(), ro)
	}
	if _, _, err := resume(2); err == nil || !strings.Contains(err.Error(), "ymmetr") {
		t.Fatalf("resume with Symmetry=2 against a sym-4 stream: want fingerprint error, got %v", err)
	}
	if _, _, err := resume(1); err == nil || !strings.Contains(err.Error(), "ymmetr") {
		t.Fatalf("resume with explicit Symmetry=1 against a sym-4 stream: want fingerprint error, got %v", err)
	}
	gotG, gotRes, err := resume(0) // zero sentinel: adopt the stored order
	if err != nil {
		t.Fatalf("resume with Symmetry=0 sentinel: %v", err)
	}
	requireIdentical(t, wantG, gotG, wantRes, gotRes)

	// The reverse direction: a generic stream cannot grow a symmetry.
	gpath := filepath.Join(t.TempDir(), "generic.ckpt")
	go2 := ckptBaseOptions()
	go2.CheckpointPath = gpath
	go2.CheckpointEvery = 100
	if _, _, err := Anneal(randomGraph(t, 48, 12, 8, 5), go2); err != nil {
		t.Fatal(err)
	}
	ro := ckptBaseOptions()
	ro.Symmetry = sym
	ro.CheckpointPath = gpath
	ro.Resume = true
	if _, _, err := Anneal(start.Clone(), ro); err == nil || !strings.Contains(err.Error(), "ymmetr") {
		t.Fatalf("resume generic stream with Symmetry=%d: want fingerprint error, got %v", sym, err)
	}
}

// TestSymmetricMovesPreserveSymmetry pins the move operators directly:
// every applied symmetric move keeps the graph inside the symmetric
// subspace with the edge count (swap) and degree profile intact, and its
// undo restores the exact previous graph.
func TestSymmetricMovesPreserveSymmetry(t *testing.T) {
	const sym = 4
	g := symStart(t, sym, 9)
	rnd := rng.New(3)
	swaps := 0
	for i := 0; i < 300; i++ {
		before := g.Fingerprint()
		edges := g.NumEdges()
		u, ok := trySymSwap(g, sym, rnd)
		if !ok {
			continue
		}
		swaps++
		if g.NumEdges() != edges {
			t.Fatalf("iteration %d: symmetric swap changed the edge count", i)
		}
		if err := hsgraph.VerifySymmetric(g, sym); err != nil {
			t.Fatalf("iteration %d: symmetric swap broke the symmetry: %v", i, err)
		}
		if i%2 == 0 {
			u()
			if g.Fingerprint() != before {
				t.Fatalf("iteration %d: undo did not restore the graph", i)
			}
		}
	}
	if swaps < 50 {
		t.Fatalf("only %d symmetric swaps applied in 300 attempts", swaps)
	}

	swings := 0
	for i := 0; i < 300; i++ {
		before := g.Fingerprint()
		u, ok := trySymSwing(g, sym, rnd)
		if !ok {
			continue
		}
		swings++
		if err := hsgraph.VerifySymmetric(g, sym); err != nil {
			t.Fatalf("iteration %d: symmetric swing broke the symmetry: %v", i, err)
		}
		if i%2 == 0 {
			u()
			if g.Fingerprint() != before {
				t.Fatalf("iteration %d: swing undo did not restore the graph", i)
			}
		}
	}
	if swings < 20 {
		t.Fatalf("only %d symmetric swings applied in 300 attempts", swings)
	}

	var mc MoveCounters
	accepts := 0
	for i := 0; i < 200; i++ {
		_, moved := symTwoNeighborSwing(g, sym, rnd, func() (int64, bool) {
			return 0, rnd.Intn(2) == 0
		}, &mc)
		if moved {
			accepts++
		}
		if err := hsgraph.VerifySymmetric(g, sym); err != nil {
			t.Fatalf("iteration %d: symmetric 2-neighbor swing broke the symmetry: %v", i, err)
		}
	}
	if accepts == 0 || mc.SwingAttempts == 0 {
		t.Fatalf("symmetric 2-neighbor swing never moved (accepts=%d, attempts=%d)", accepts, mc.SwingAttempts)
	}
}

// TestSymmetryOptionValidation pins the documented error paths of the
// Symmetry option.
func TestSymmetryOptionValidation(t *testing.T) {
	start := randomGraph(t, 24, 8, 7, 1)
	if _, _, err := Anneal(start, Options{Iterations: 1, Symmetry: -1}); err == nil || !strings.Contains(err.Error(), "Symmetry") {
		t.Fatalf("negative Symmetry: want error, got %v", err)
	}
	if _, _, err := Anneal(start, Options{Iterations: 1, Eval: EvalSymmetric, Symmetry: 1}); err == nil || !strings.Contains(err.Error(), "Symmetry") {
		t.Fatalf("EvalSymmetric without Symmetry: want error, got %v", err)
	}
	// A start graph outside the symmetric subspace is rejected up front.
	if _, _, err := Anneal(start, Options{Iterations: 1, Symmetry: 2}); err == nil || !strings.Contains(err.Error(), "ymmetr") {
		t.Fatalf("asymmetric start with Symmetry=2: want error, got %v", err)
	}
}

// TestAnnealRefusesOversizedIncrementalGraphs pins the documented error
// that replaced the silent attach-time panic: every cache-backed mode
// refuses graphs beyond hsgraph.MaxIncrementalSwitches and points at
// EvalExact.
func TestAnnealRefusesOversizedIncrementalGraphs(t *testing.T) {
	m := hsgraph.MaxIncrementalSwitches + 1 // 20001 = 3 * 59 * 113
	g := hsgraph.New(2, m, 4)
	if err := g.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AttachHost(1, 1); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < m; s++ {
		if err := g.Connect(s, (s+1)%m); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		mode EvalMode
		sym  int
	}{
		{EvalIncremental, 0},
		{EvalSymmetric, 3}, // 3 divides 20001; the size check still fires first
	} {
		_, _, err := Anneal(g, Options{Iterations: 1, Eval: tc.mode, Symmetry: tc.sym, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "EvalExact") {
			t.Fatalf("%v on %d switches: want documented cache-size error, got %v", tc.mode, m, err)
		}
	}
}
