package opt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// progressPoint is one OnProgress observation: with ReportEvery=1 the
// sequence of points is the full accepted-move trajectory of a run.
type progressPoint struct {
	iter          int
	current, best int64
}

// runWithTrajectory anneals with ReportEvery=1 and returns the serialized
// best graph, the Result and every (iter, current, best) point.
func runWithTrajectory(t *testing.T, o Options, seed uint64) ([]byte, Result, []progressPoint) {
	t.Helper()
	start := randomGraph(t, 48, 12, 8, 5)
	var traj []progressPoint
	o.Seed = seed
	o.ReportEvery = 1
	o.OnProgress = func(iter int, current, best int64) {
		traj = append(traj, progressPoint{iter, current, best})
	}
	g, res, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}
	return graphBytes(t, g), res, traj
}

// TestEvalModesProduceIdenticalRuns is the evaluation stack's headline
// property: for the same seed, exact and incremental evaluation produce
// the identical accepted-move sequence
// (same current/best energy after every iteration), the identical Result
// (move counters included) and the identical final best graph, across
// move sets and schedules.
func TestEvalModesProduceIdenticalRuns(t *testing.T) {
	cases := []struct {
		name  string
		moves MoveSet
		sched Schedule
		iters int
		seeds []uint64
	}{
		{"2ns-geometric", TwoNeighborSwing, Geometric, 400, []uint64{7, 19}},
		{"swap-geometric", SwapOnly, Geometric, 400, []uint64{7}},
		{"swing-geometric", SwingOnly, Geometric, 400, []uint64{7}},
		{"2ns-linear", TwoNeighborSwing, Linear, 300, []uint64{3}},
		{"2ns-hillclimb", TwoNeighborSwing, HillClimb, 300, []uint64{3}},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			base := Options{Iterations: tc.iters, Moves: tc.moves, Schedule: tc.sched}
			exactO := base
			exactO.Eval = EvalExact
			wantG, wantRes, wantTraj := runWithTrajectory(t, exactO, seed)
			for _, mode := range []EvalMode{EvalIncremental} {
				for _, workers := range []int{1, 3} {
					o := base
					o.Eval = mode
					o.Workers = workers
					gotG, gotRes, gotTraj := runWithTrajectory(t, o, seed)
					ctx := tc.name + "/" + mode.String()
					if !bytes.Equal(wantG, gotG) {
						t.Fatalf("%s seed=%d workers=%d: best graphs differ from exact mode", ctx, seed, workers)
					}
					gotRes.Eval = EvalStats{} // diagnostics differ by mode by design
					if !reflect.DeepEqual(wantRes, gotRes) {
						t.Fatalf("%s seed=%d workers=%d: results differ:\nexact %+v\ngot   %+v", ctx, seed, workers, wantRes, gotRes)
					}
					if !reflect.DeepEqual(wantTraj, gotTraj) {
						for i := range wantTraj {
							if i < len(gotTraj) && wantTraj[i] != gotTraj[i] {
								t.Fatalf("%s seed=%d workers=%d: trajectories fork at iteration %d: exact %+v, got %+v",
									ctx, seed, workers, wantTraj[i].iter, wantTraj[i], gotTraj[i])
							}
						}
						t.Fatalf("%s seed=%d workers=%d: trajectory lengths differ: %d vs %d", ctx, seed, workers, len(wantTraj), len(gotTraj))
					}
				}
			}
		}
	}
}

// TestLadderKillResume (named for the retired sampled-bound mode, whose
// spelling now runs as incremental): an incremental-mode run interrupted
// at an arbitrary iteration and resumed from its snapshot — including
// with a different worker count — is bit-identical to the uninterrupted
// run (and hence to the exact run, by TestEvalModesProduceIdenticalRuns).
func TestLadderKillResume(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	o := ckptBaseOptions()
	o.Eval = EvalIncremental
	wantG, wantRes, err := Anneal(start, o)
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
		path := filepath.Join(t.TempDir(), "incremental.ckpt")
		var stop atomic.Bool
		ko := ckptBaseOptions()
		ko.Eval = EvalIncremental
		ko.CheckpointPath = path
		ko.CheckpointEvery = 100
		ko.Interrupt = &stop
		ko.Workers = tc.killWorkers
		ko.OnProgress = func(iter int, current, best int64) {
			if iter == tc.killAt {
				stop.Store(true)
			}
		}
		if _, _, err := Anneal(start, ko); !errors.Is(err, ckpt.ErrInterrupted) {
			t.Fatalf("killAt=%d: want ErrInterrupted, got %v", tc.killAt, err)
		}

		ro := ckptBaseOptions()
		ro.Eval = EvalIncremental
		ro.CheckpointPath = path
		ro.Resume = true
		ro.Workers = tc.resumeWorkers
		gotG, gotRes, err := Anneal(start, ro)
		if err != nil {
			t.Fatalf("killAt=%d: resume: %v", tc.killAt, err)
		}
		requireIdentical(t, wantG, gotG, wantRes, gotRes)
	}
}

// TestResumeRetiredLadderSnapshot: an orp.anneal.v3 snapshot written by
// the retired sampled-bound mode — eval=2 and a non-zero estimator RNG
// state — still resumes, as an incremental run, bit-identical to the
// uninterrupted incremental run. The snapshot is crafted through the
// production encoder, with the estimator slot patched in afterwards.
func TestResumeRetiredLadderSnapshot(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	mode, err := ParseEvalMode("ladder")
	if err != nil || mode != EvalIncremental {
		t.Fatalf(`ParseEvalMode("ladder") = %v, %v; want incremental`, mode, err)
	}
	o := ckptBaseOptions()
	o.Eval = mode
	wantG, wantRes, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}

	// Take a real mid-run snapshot, reload its state and re-encode it as
	// the retired mode would have.
	path := filepath.Join(t.TempDir(), "ladder.ckpt")
	var stop atomic.Bool
	ko := ckptBaseOptions()
	ko.Eval = mode
	ko.CheckpointPath = path
	ko.Interrupt = &stop
	ko.OnProgress = func(iter int, _, _ int64) {
		if iter == 313 {
			stop.Store(true)
		}
	}
	if _, _, err := Anneal(start, ko); !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	lo := ckptBaseOptions()
	lo.Eval = mode
	ev := hsgraph.NewEvaluator(1)
	defer ev.Close()
	st, err := loadAnnealState(path, &lo, ev)
	if err != nil {
		t.Fatal(err)
	}
	lo.Eval = evalRetiredLadder
	lo.CheckpointEvery = ko.CheckpointEvery
	if err := writeAnnealCheckpoint(path, st, &lo); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The estimator slot is the four words right after the decision RNG.
	var rngWords []byte
	for _, w := range st.rnd.State() {
		rngWords = binary.LittleEndian.AppendUint64(rngWords, w)
	}
	at := bytes.Index(payload, rngWords)
	if at < 0 {
		t.Fatal("decision RNG state not found in the snapshot payload")
	}
	slot := payload[at+len(rngWords) : at+2*len(rngWords)]
	if !bytes.Equal(slot, make([]byte, len(slot))) {
		t.Fatalf("estimator slot not written as zeros: %x", slot)
	}
	for i, w := range rng.New(0xb5ad4eceda1ce2a9).State() {
		binary.LittleEndian.PutUint64(slot[8*i:], w)
	}
	if err := ckpt.WriteFile(path, kind, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := decodeAnnealSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if raw.eval != EvalIncremental || raw.iter != 313 {
		t.Fatalf("decoded retired snapshot: eval=%v iter=%d, want incremental at 313", raw.eval, raw.iter)
	}

	ro := ckptBaseOptions()
	ro.Eval = mode
	ro.CheckpointPath = path
	ro.Resume = true
	gotG, gotRes, err := Anneal(start, ro)
	if err != nil {
		t.Fatalf("resume retired snapshot: %v", err)
	}
	requireIdentical(t, wantG, gotG, wantRes, gotRes)
}

// TestLadderResumeFingerprintsEvalMode: a snapshot taken in one
// evaluation mode refuses to resume in another — a resume that silently
// switched modes would break the options fingerprint contract.
func TestLadderResumeFingerprintsEvalMode(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	path := filepath.Join(t.TempDir(), "anneal.ckpt")
	o := ckptBaseOptions()
	o.Eval = EvalIncremental
	o.CheckpointPath = path
	o.CheckpointEvery = 100
	if _, _, err := Anneal(start, o); err != nil {
		t.Fatal(err)
	}
	ro := ckptBaseOptions()
	ro.Eval = EvalExact
	ro.CheckpointPath = path
	ro.Resume = true
	_, _, err := Anneal(start, ro)
	if err == nil || !strings.Contains(err.Error(), "Eval") {
		t.Fatalf("resume with mismatched eval mode: want fingerprint error, got %v", err)
	}
}

// TestParallelAnnealLadder: the restart tournament picks the same winner
// in incremental mode as in exact mode.
func TestParallelAnnealLadder(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	base := Options{Iterations: 300, Seed: 21}
	exactG, exactRes, err := ParallelAnneal(start, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Eval = EvalIncremental
	g, res, err := ParallelAnneal(start, o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphBytes(t, exactG), graphBytes(t, g)) {
		t.Fatal("incremental ParallelAnneal winner differs from exact mode")
	}
	res.Eval = EvalStats{} // diagnostics differ by mode by design
	if !reflect.DeepEqual(exactRes, res) {
		t.Fatalf("ParallelAnneal results differ:\nexact %+v\ngot   %+v", exactRes, res)
	}
}
