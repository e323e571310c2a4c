package opt

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_trajectories.json from the current code")

const goldenPath = "testdata/golden_trajectories.json"

// goldenRun is what the golden file pins per anneal: enough to prove the
// whole trajectory is unchanged (the final graph's content address, the
// accepted-move count and the per-operator counters), not just the end
// energy.
type goldenRun struct {
	Fingerprint string       `json:"fingerprint"`
	TotalPath   int64        `json:"totalPath"`
	Accepted    int          `json:"accepted"`
	Proposed    int          `json:"proposed"`
	Moves       MoveCounters `json:"moves"`
}

// goldenCase is one pinned run: the uninterrupted result plus the result
// of the same run killed at a third of its budget and resumed.
type goldenCase struct {
	Run     goldenRun `json:"run"`
	Resumed goldenRun `json:"resumed"`
}

type goldenSpec struct {
	moves MoveSet
	mode  string // CLI spelling, resolved through ParseEvalMode
	sym   int
	seed  uint64
}

func (s goldenSpec) name() string {
	return fmt.Sprintf("%v/%s/g%d/seed%d", s.moves, s.mode, s.sym, s.seed)
}

// goldenSpecs enumerates the pinned cases: every move set under every
// generic-graph evaluation spelling at g=1 (the retired "ladder" spelling
// included), and exact plus orbit-quotient evaluation at g=2 and g=4.
func goldenSpecs() []goldenSpec {
	var specs []goldenSpec
	seeds := []uint64{3, 11, 29}
	for _, mv := range []MoveSet{SwapOnly, SwingOnly, TwoNeighborSwing} {
		for _, mode := range []string{"exact", "incremental", "ladder"} {
			for _, seed := range seeds {
				specs = append(specs, goldenSpec{mv, mode, 1, seed})
			}
		}
		for _, sym := range []int{2, 4} {
			for _, mode := range []string{"exact", "symmetric"} {
				for _, seed := range seeds {
					specs = append(specs, goldenSpec{mv, mode, sym, seed})
				}
			}
		}
	}
	return specs
}

func goldenOf(g *hsgraph.Graph, res Result) goldenRun {
	return goldenRun{
		Fingerprint: g.Fingerprint().String(),
		TotalPath:   res.Best.TotalPath,
		Accepted:    res.Accepted,
		Proposed:    res.Proposed,
		Moves:       res.Moves,
	}
}

func runGolden(t *testing.T, s goldenSpec) goldenCase {
	t.Helper()
	mode, err := ParseEvalMode(s.mode)
	if err != nil {
		t.Fatal(err)
	}
	var start *hsgraph.Graph
	if s.sym == 1 {
		start = randomGraph(t, 48, 12, 8, 5)
	} else if start, err = topo.RandomSymmetric(48, 12, 8, s.sym, 5); err != nil {
		t.Fatal(err)
	}
	base := Options{Iterations: 300, Moves: s.moves, Eval: mode, Symmetry: s.sym, Seed: s.seed, ReportEvery: 1}
	g, res, err := Anneal(start, base)
	if err != nil {
		t.Fatalf("%s: %v", s.name(), err)
	}
	out := goldenCase{Run: goldenOf(g, res)}

	path := filepath.Join(t.TempDir(), "golden.ckpt")
	var stop atomic.Bool
	ko := base
	ko.CheckpointPath = path
	ko.Interrupt = &stop
	ko.OnProgress = func(iter int, _, _ int64) {
		if iter == base.Iterations/3 {
			stop.Store(true)
		}
	}
	if _, _, err := Anneal(start, ko); !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("%s: interrupted run: want ErrInterrupted, got %v", s.name(), err)
	}
	ro := base
	ro.CheckpointPath = path
	ro.Resume = true
	rg, rres, err := Anneal(start, ro)
	if err != nil {
		t.Fatalf("%s: resume: %v", s.name(), err)
	}
	out.Resumed = goldenOf(rg, rres)
	return out
}

// TestGoldenTrajectories pins the annealer's trajectories across every
// move set, evaluation mode and orbit order against values recorded from
// an earlier implementation, so refactors of the evaluation stack are
// checked for bit-identical behavior rather than merely self-consistent
// behavior. Regenerate (only for an intended trajectory change) with
//
//	go test ./internal/opt/ -run TestGoldenTrajectories -update-golden
func TestGoldenTrajectories(t *testing.T) {
	got := map[string]goldenCase{}
	for _, s := range goldenSpecs() {
		got[s.name()] = runGolden(t, s)
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, test enumerates %d", len(want), len(got))
	}
	for _, s := range goldenSpecs() {
		name := s.name()
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden file", name)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: trajectory changed:\nwant %+v\ngot  %+v", name, w, got[name])
		}
		if w.Resumed != w.Run {
			t.Errorf("%s: golden resumed run differs from the uninterrupted run", name)
		}
		// Every evaluation mode must reproduce exact mode's run, and the
		// retired "ladder" spelling plain incremental evaluation's.
		for _, refMode := range map[string][]string{
			"incremental": {"exact"}, "symmetric": {"exact"}, "ladder": {"exact", "incremental"},
		}[s.mode] {
			ref := s
			ref.mode = refMode
			if want[ref.name()] != w {
				t.Errorf("%s: golden differs from %s", name, ref.name())
			}
		}
	}
}
