package hsgraph

import (
	"testing"

	"repro/internal/rng"
)

// moveOp is one replayable graph mutation for the differential harness.
type moveOp struct {
	kind    int // 0 = disconnect, 1 = connect, 2 = move host
	a, b, h int
}

func (op moveOp) apply(t *testing.T, g *Graph) {
	t.Helper()
	var err error
	switch op.kind {
	case 0:
		err = g.Disconnect(op.a, op.b)
	case 1:
		err = g.Connect(op.a, op.b)
	case 2:
		err = g.MoveHost(op.h, op.a)
	}
	if err != nil {
		t.Fatalf("replay %+v: %v", op, err)
	}
}

// randomMoveScript generates a sequence of valid-in-order mutations by
// applying candidates to the scratch clone as it goes; the result replays
// without errors on any clone of the same starting graph. Roughly half the
// steps are immediately-reverted pairs, so the op log's net-cancellation
// path is exercised as heavily as plain moves.
func randomMoveScript(t *testing.T, g *Graph, rnd *rng.Rand, steps int) []moveOp {
	t.Helper()
	scratch := g.Clone()
	var script []moveOp
	emit := func(op moveOp) {
		op.apply(t, scratch)
		script = append(script, op)
	}
	m := scratch.Switches()
	r := scratch.Radix()
	for len(script) < steps {
		revert := rnd.Intn(2) == 0
		switch rnd.Intn(3) {
		case 0: // rewire: drop a random edge, maybe add another
			if scratch.NumEdges() == 0 {
				continue
			}
			a, b := scratch.Edge(rnd.Intn(scratch.NumEdges()))
			emit(moveOp{kind: 0, a: a, b: b})
			if revert {
				emit(moveOp{kind: 1, a: a, b: b})
			}
		case 1:
			a, b := rnd.Intn(m), rnd.Intn(m)
			if a == b || scratch.HasEdge(a, b) || scratch.Degree(a) >= r || scratch.Degree(b) >= r {
				continue
			}
			emit(moveOp{kind: 1, a: a, b: b})
			if revert {
				emit(moveOp{kind: 0, a: a, b: b})
			}
		default:
			if scratch.Order() == 0 {
				continue
			}
			h := rnd.Intn(scratch.Order())
			from := scratch.SwitchOf(h)
			if from < 0 {
				continue
			}
			to := rnd.Intn(m)
			if to == from || scratch.Degree(to) >= r {
				continue
			}
			emit(moveOp{kind: 2, h: h, a: to})
			if revert {
				emit(moveOp{kind: 2, h: h, a: from})
			}
		}
	}
	return script
}

// checkIncrementalStep compares the incremental evaluator's Energy
// against the full sweep and its Evaluate against the plain-BFS oracle on
// g's current state.
func checkIncrementalStep(t *testing.T, ie *IncrementalEvaluator, ev *Evaluator, g *Graph, ctx string) {
	t.Helper()
	wantMet := g.EvaluateSlow()
	wantE, wantC := ev.Energy(g)
	gotE, gotC := ie.Energy(g)
	if gotE != wantE || gotC != wantC {
		t.Fatalf("%s: incremental Energy (%d, %v) != exact (%d, %v)", ctx, gotE, gotC, wantE, wantC)
	}
	if gotMet := ie.Evaluate(g); gotMet != wantMet {
		t.Fatalf("%s: incremental Evaluate %+v != exact %+v", ctx, gotMet, wantMet)
	}
}

// newPooledCache returns an order-sym incremental evaluator sweeping on a
// fresh pool of the given size; the pool closes when the test ends.
func newPooledCache(tb testing.TB, workers, sym int) *IncrementalEvaluator {
	pool := NewEvaluator(workers)
	tb.Cleanup(pool.Close)
	return NewIncrementalEvaluator(pool, sym)
}

// TestIncrementalEvaluatorDifferential is the equivalence proof behind the
// incremental engine: on >= 200 (graph, move-script, worker-count)
// combinations, the dirty-source re-sweep must agree with the full-sweep
// engines bit-for-bit on TotalPath, HASPL, Diameter and connectivity after
// every single step — across connected, disconnected, island and
// concentrated-host regimes, and across heavy do/undo churn. The
// sweep-size inputs then pin both row kernels at their lane-width edges
// (see sweepSizeInputs).
func TestIncrementalEvaluatorDifferential(t *testing.T) {
	rnd := rng.New(20260807)
	workerCounts := []int{1, 2, 3, 8}
	// No short-mode reduction: the coverage floor below needs all 50
	// sequences (50 × 4 worker counts), and CI runs this under -short.
	sequences := 50
	steps := 24
	ev := NewEvaluator(3)
	defer ev.Close()
	trials := 0
	for seq := 0; seq < sequences; seq++ {
		base := randomEvalGraph(t, rnd)
		script := randomMoveScript(t, base, rnd, steps)
		for _, workers := range workerCounts {
			trials++
			g := base.Clone()
			pool := NewEvaluator(workers)
			ie := NewIncrementalEvaluator(pool, 1)
			checkIncrementalStep(t, ie, ev, g, "initial")
			for i, op := range script {
				op.apply(t, g)
				checkIncrementalStep(t, ie, ev, g, "seq "+itoa(seq)+" step "+itoa(i)+" workers "+itoa(workers))
			}
			pool.Close()
		}
	}
	if trials < 200 {
		t.Fatalf("differential coverage too small: %d combinations", trials)
	}

	for _, in := range sweepSizeInputs(t) {
		// One oracle per state, shared by the worker counts: the plain BFS
		// dominates at the no-store input's size.
		whole := in.g.EvaluateSlow()
		cutG := in.g.Clone()
		if err := cutG.Disconnect(in.a, in.b); err != nil {
			t.Fatal(err)
		}
		cut := cutG.EvaluateSlow()
		for _, workers := range []int{1, 2, 3} {
			g := in.g.Clone()
			pool := NewEvaluator(workers)
			ie := NewIncrementalEvaluator(pool, in.sym)
			checkCached(t, ie, g, whole, in.name+" attach")
			wantSkips := int64(0) // peeks past the row budget
			if in.dirty == 0 {
				wantSkips = 1
			}
			// Cut, restore, cut, restore: each edit's dirty sources are
			// swept once, into the peek rows (or, past the row budget,
			// into aggregates only) when peeked, else into the cache. The
			// second round judges its dirty sets by the rows the first
			// round wrote.
			for step, peek := range []bool{true, false, false, true} {
				ctx := in.name + " workers " + itoa(workers) + " step " + itoa(step)
				cutting := step%2 == 0
				want, edit := whole, g.Connect
				if cutting {
					want, edit = cut, g.Disconnect
				}
				if err := edit(in.a, in.b); err != nil {
					t.Fatal(err)
				}
				before := ie.Stats()
				if peek {
					e, connected, ok := ie.PeekEnergy(g)
					if !ok || connected != want.Connected || (connected && e != want.TotalPath) {
						t.Fatalf("%s: peek (%d, %v, %v) != oracle %+v", ctx, e, connected, ok, want)
					}
					after := ie.Stats()
					if got := after.PeekSources - before.PeekSources; in.dirty > 0 && got != int64(in.dirty) {
						t.Fatalf("%s: peek swept %d sources, want %d", ctx, got, in.dirty)
					}
					if got := after.PeekStoreSkips - before.PeekStoreSkips; got != wantSkips {
						t.Fatalf("%s: %d peek store skips", ctx, got)
					}
				}
				checkCached(t, ie, g, want, ctx)
				if got := ie.Stats().SweptSources - before.SweptSources; !peek && in.dirty > 0 && got != int64(in.dirty) {
					t.Fatalf("%s: commit swept %d sources, want %d", ctx, got, in.dirty)
				}
			}
			pool.Close()
		}
	}
}

// checkCached is checkIncrementalStep against a precomputed oracle.
func checkCached(t *testing.T, ie *IncrementalEvaluator, g *Graph, want Metrics, ctx string) {
	t.Helper()
	wantE := want.TotalPath
	if !want.Connected {
		wantE = 0
	}
	if e, connected := ie.Energy(g); e != wantE || connected != want.Connected {
		t.Fatalf("%s: incremental Energy (%d, %v) != oracle %+v", ctx, e, connected, want)
	}
	if got := ie.Evaluate(g); got != want {
		t.Fatalf("%s: incremental Evaluate %+v != oracle %+v", ctx, got, want)
	}
}

// sweepSizeInput is a graph with a bridge {a, b} whose removal, and whose
// re-addition, each dirty exactly dirty cached rows of an order-sym cache;
// dirty == 0 marks the input whose dirty set exceeds the peek row budget.
type sweepSizeInput struct {
	name  string
	g     *Graph
	sym   int
	a, b  int
	dirty int
}

// sweepSizeInputs builds dirty sets of 1, 63, 64, 65, 127, 128 and 129
// sources — one lane, one word less or more by one, two words less or
// more by one, where 129 is a 128-lane batch plus a 1-lane one — plus
// one too large for the peek row budget. Sizes from 2 up are a path of
// that many host-bearing switches after a longer second path: cutting
// and restoring the path's middle edge changes every row of the path
// and none of the other component's, and the untouched component keeps
// the dirty share below the full-rebuild threshold. Placing the path last
// keeps a source's index apart from its position in the swept list, so
// a row written to the wrong one of the two slots shows. A generic cache
// always dirties both endpoints of a changed edge, so the 1-source set
// is an order-2 cache over two mirrored 2-switch components, whose
// self-mirrored edge {0, 2} dirties only representative 0.
func sweepSizeInputs(t *testing.T) []sweepSizeInput {
	t.Helper()
	connect := func(g *Graph, a, b int) {
		if err := g.Connect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	pair := New(4, 4, 3)
	for s := 0; s < 4; s++ {
		if err := pair.AttachHost(s, s); err != nil {
			t.Fatal(err)
		}
	}
	connect(pair, 0, 2)
	connect(pair, 1, 3)
	inputs := []sweepSizeInput{{name: "dirty 1", g: pair, sym: 2, a: 0, b: 2, dirty: 1}}
	for _, k := range []int{63, 64, 65, 127, 128, 129} {
		m := 2*k + 8
		p := m - k // the k-path is switches [p, m)
		g := New(m, m, 4)
		for s := 0; s < m; s++ {
			if err := g.AttachHost(s, s); err != nil {
				t.Fatal(err)
			}
			if s+1 < m && s+1 != p {
				connect(g, s, s+1)
			}
		}
		inputs = append(inputs, sweepSizeInput{name: "dirty " + itoa(k), g: g, sym: 1, a: p + k/2 - 1, b: p + k/2, dirty: k})
	}
	return append(inputs, sweepSizeInput{name: "no-store peek", g: hubRing(t, 3000), sym: 1, a: 0, b: 1500})
}

// hubRing returns an m-switch wheel, one host per switch: a hub joined to
// every switch of a ring. Cutting one spoke dirties essentially every
// source, so at m = 3000, dirty*m ≈ 9M exceeds MaxPeekRowEntries.
func hubRing(t *testing.T, m int) *Graph {
	t.Helper()
	g := New(m, m, m)
	for s := 0; s < m; s++ {
		if err := g.AttachHost(s, s); err != nil {
			t.Fatal(err)
		}
	}
	for s := 1; s < m; s++ {
		if err := g.Connect(0, s); err != nil {
			t.Fatal(err)
		}
	}
	for s := 1; s < m-1; s++ {
		if err := g.Connect(s, s+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect(m-1, 1); err != nil {
		t.Fatal(err)
	}
	return g
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestIncrementalRollbackReevaluate is the regression test for the
// stale-cache bug class: a candidate move is estimated (peeked), rejected
// and rolled back, and the evaluator must then judge subsequent moves
// against correct cached distances. A buggy implementation that committed
// the peeked rows (or skipped re-flagging on the undo ops) would keep
// distances of the rejected candidate and return a wrong energy for the
// follow-up move.
func TestIncrementalRollbackReevaluate(t *testing.T) {
	rnd := rng.New(99)
	ev := NewEvaluator(2)
	defer ev.Close()
	for trial := 0; trial < 40; trial++ {
		g := randomEvalGraph(t, rnd)
		pool := NewEvaluator(1 + trial%3)
		ie := NewIncrementalEvaluator(pool, 1)
		checkIncrementalStep(t, ie, ev, g, "attach")
		script := randomMoveScript(t, g, rnd, 6)
		for i, op := range script {
			// Candidate: apply, peek, reject, roll back.
			undo := op
			if op.kind == 2 {
				undo.a = g.SwitchOf(op.h) // the host's pre-move switch
			}
			op.apply(t, g)
			ie.PeekEnergy(g)
			switch op.kind {
			case 0:
				undo.kind = 1
			case 1:
				undo.kind = 0
			}
			undo.apply(t, g)
			// The cache must now answer for the rolled-back (original)
			// state and for any follow-up mutation.
			checkIncrementalStep(t, ie, ev, g, "rollback "+itoa(i))
			// Re-apply for real so later candidates see fresh states, and
			// check again: the undo ops' re-flagging must not linger.
			op.apply(t, g)
			checkIncrementalStep(t, ie, ev, g, "reapply "+itoa(i))
		}
		pool.Close()
	}
}

// TestIncrementalOpLogOverflow drives more mutations than the op log
// holds between evaluations; the evaluator must notice and fall back to a
// full rebuild instead of trusting a truncated log.
func TestIncrementalOpLogOverflow(t *testing.T) {
	g, err := RandomConnected(64, 16, 10, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(1)
	defer ev.Close()
	ie := newPooledCache(t, 2, 1)
	checkIncrementalStep(t, ie, ev, g, "attach")
	a, b := g.Edge(0)
	for i := 0; i < maxOpLog; i++ { // 2 ops per round: guaranteed overflow
		if err := g.Disconnect(a, b); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	if !g.opOverflow {
		t.Fatal("op log did not overflow")
	}
	checkIncrementalStep(t, ie, ev, g, "post-overflow")
	// And the evaluator must have re-armed a fresh log.
	if g.opOverflow || !g.opLogOn {
		t.Fatal("evaluator did not re-arm the op log after overflow")
	}
}

// TestIncrementalEvaluatorSteadyStateAllocs verifies the annealing-shaped
// cycle (mutate, evaluate, roll back, evaluate) is allocation-free once
// the cache is warm, like the sharded evaluator's steady state.
func TestIncrementalEvaluatorSteadyStateAllocs(t *testing.T) {
	g, err := RandomConnected(128, 32, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ie := NewIncrementalEvaluator(NewEvaluator(1), 1) // one worker: no pool goroutines
	ie.Energy(g)
	a, b := g.Edge(0)
	c, d := g.Edge(1)
	step := func() {
		for _, p := range [][2]int{{a, b}, {c, d}} {
			if err := g.Disconnect(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Connect(a, b); err != nil {
			t.Fatal(err)
		}
		ie.PeekEnergy(g)
		if err := g.Connect(c, d); err != nil {
			t.Fatal(err)
		}
		if _, ok := ie.Energy(g); !ok {
			t.Fatal("graph disconnected")
		}
	}
	step() // warm every scratch path
	if avg := testing.AllocsPerRun(50, step); avg > 0 {
		t.Fatalf("steady-state incremental evaluation allocates %.1f times per cycle", avg)
	}
}

// FuzzIncrementalEval feeds random edge-mutation scripts (including no-op
// and revert pairs) to the incremental evaluator and cross-checks every
// state against a fresh full sweep.
func FuzzIncrementalEval(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint64(7), []byte{9, 9, 9, 9, 0, 0, 0, 0, 255, 254, 253})
	f.Add(uint64(42), []byte{})
	f.Add(uint64(20260807), []byte{1, 0, 1, 0, 1, 0, 1, 0, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 96 {
			script = script[:96]
		}
		rnd := rng.New(seed)
		g := randomEvalGraph(t, rnd)
		ev := NewEvaluator(2)
		defer ev.Close()
		ie := newPooledCache(t, 1+int(seed%3), 1)
		checkIncrementalStep(t, ie, ev, g, "attach")
		m := g.Switches()
		r := g.Radix()
		for i := 0; i+2 < len(script); i += 3 {
			op, x, y := script[i], int(script[i+1]), int(script[i+2])
			switch op % 5 {
			case 0: // disconnect an existing edge
				if g.NumEdges() == 0 {
					continue
				}
				a, b := g.Edge(x % g.NumEdges())
				if err := g.Disconnect(a, b); err != nil {
					t.Fatal(err)
				}
			case 1: // connect a feasible pair
				a, b := x%m, y%m
				if a == b || g.HasEdge(a, b) || g.Degree(a) >= r || g.Degree(b) >= r {
					continue
				}
				if err := g.Connect(a, b); err != nil {
					t.Fatal(err)
				}
			case 2: // move a host
				if g.Order() == 0 {
					continue
				}
				h := x % g.Order()
				to := y % m
				if g.SwitchOf(h) < 0 || to == g.SwitchOf(h) || g.Degree(to) >= r {
					continue
				}
				if err := g.MoveHost(h, to); err != nil {
					t.Fatal(err)
				}
			case 3: // revert pair: disconnect + reconnect (net no-op)
				if g.NumEdges() == 0 {
					continue
				}
				a, b := g.Edge(x % g.NumEdges())
				if err := g.Disconnect(a, b); err != nil {
					t.Fatal(err)
				}
				if err := g.Connect(a, b); err != nil {
					t.Fatal(err)
				}
			default: // peek without committing anything
				ie.PeekEnergy(g)
				continue
			}
			checkIncrementalStep(t, ie, ev, g, "op "+itoa(i))
		}
		checkIncrementalStep(t, ie, ev, g, "final")
	})
}

// TestIncrementalStats checks the introspection counters against a
// scripted interaction: attach, commit, stored-peek reuse and a forced
// full-rebuild fallback all leave their fingerprints.
func TestIncrementalStats(t *testing.T) {
	g, err := RandomConnected(32, 16, 10, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	ie := newPooledCache(t, 2, 1)

	ie.Energy(g) // attach: a rebuild, but not a counted sync
	s := ie.Stats()
	if s.Syncs != 0 || s.SweptSources != int64(g.Switches()) {
		t.Fatalf("after attach: %+v", s)
	}

	// A host move committed the incremental way (no rows change, so no
	// sweep happens, but the sync is counted).
	if err := g.MoveHost(0, pickTarget(t, g)); err != nil {
		t.Fatal(err)
	}
	ie.Energy(g)
	s = ie.Stats()
	if s.Syncs != 1 || s.FullRebuilds != 0 {
		t.Fatalf("after commit: %+v", s)
	}

	// Peek then commit the identical state: the stored rows must be
	// reused rather than re-swept.
	if err := g.MoveHost(0, pickTarget(t, g)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ie.PeekEnergy(g); !ok {
		t.Fatal("peek refused")
	}
	sweptBefore := ie.Stats().SweptSources
	ie.Energy(g)
	s = ie.Stats()
	if s.Peeks != 1 || s.StoredPeekReuses != 1 {
		t.Fatalf("stored peek not reused: %+v", s)
	}
	if s.SweptSources != sweptBefore {
		t.Fatalf("peek commit swept rows: %+v", s)
	}

	// Batch enough genuine rewires between commits and the dirty-source
	// fraction must eventually exceed the fallback threshold.
	rnd := rng.New(23)
	for round := 0; round < 50 && ie.Stats().FullRebuilds == 0; round++ {
		for k := 0; k < 12; k++ {
			rewire(t, g, rnd)
		}
		ie.Energy(g)
	}
	s = ie.Stats()
	if s.FullRebuilds == 0 {
		t.Fatalf("mass dirtying never triggered the fallback: %+v", s)
	}
	if s.DirtySources == 0 || s.SweptSources <= int64(g.Switches()) {
		t.Fatalf("rewires left no sweep trace: %+v", s)
	}
}

// rewire removes a random edge and adds a random non-edge, mutating the
// topology for real (no net no-ops that the op log would compact away).
func rewire(t *testing.T, g *Graph, rnd *rng.Rand) {
	t.Helper()
	if g.NumEdges() > 0 {
		a, b := g.Edge(int(rnd.Uint64() % uint64(g.NumEdges())))
		if err := g.Disconnect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	for try := 0; try < 64; try++ {
		a := int(rnd.Uint64() % uint64(g.Switches()))
		b := int(rnd.Uint64() % uint64(g.Switches()))
		if a == b || g.HasEdge(a, b) {
			continue
		}
		if g.SwitchDegree(a)+g.HostCount(a) >= g.Radix() || g.SwitchDegree(b)+g.HostCount(b) >= g.Radix() {
			continue
		}
		if err := g.Connect(a, b); err != nil {
			t.Fatal(err)
		}
		return
	}
}

// pickTarget returns a switch host 0 can legally move to.
func pickTarget(t *testing.T, g *Graph) int {
	t.Helper()
	from := g.SwitchOf(0)
	for to := 0; to < g.Switches(); to++ {
		if to != from && g.Degree(to) < g.Radix() {
			return to
		}
	}
	t.Fatal("no legal host move")
	return -1
}

// TestPeekStoreSkipAtRowBudget pins the evaluator's one silent
// performance downgrade: a peek whose dirty set exceeds MaxPeekRowEntries
// stores no candidate rows — the commit re-sweeps — but still computes
// exact aggregates, and IncStats.PeekStoreSkips counts the event so CLIs
// can warn. The graph is a hub-plus-ring sized so that removing one spoke
// dirties essentially every source: with m=3000 host-bearing switches,
// dirty*m ≈ 9M > 8M entries.
func TestPeekStoreSkipAtRowBudget(t *testing.T) {
	const m = 3000
	g := hubRing(t, m)

	ie := newPooledCache(t, 4, 1)
	ie.Energy(g) // attach
	if got := ie.Stats().PeekStoreSkips; got != 0 {
		t.Fatalf("PeekStoreSkips before any peek: %d", got)
	}
	if err := g.Disconnect(0, m/2); err != nil {
		t.Fatal(err)
	}
	e, conn, ok := ie.PeekEnergy(g)
	if !ok {
		t.Fatal("PeekEnergy not attached")
	}
	if got := ie.Stats().PeekStoreSkips; got != 1 {
		t.Fatalf("PeekStoreSkips after oversized peek: %d, want 1", got)
	}
	// Results are unaffected: the peek and the subsequent commit agree
	// with the plain-BFS oracle.
	want := g.EvaluateSlow()
	if conn != want.Connected || e != want.TotalPath {
		t.Fatalf("oversized peek (%d,%v) != evaluate %+v", e, conn, want)
	}
	ce, cok := ie.Energy(g)
	if cok != want.Connected || ce != want.TotalPath {
		t.Fatalf("commit after oversized peek (%d,%v) != evaluate %+v", ce, cok, want)
	}
}

// BenchmarkIncrementalSweep times one sweep round of the row kernels on
// one worker at the n=4096, r=12, m=1343 instance: 40 sources (a 64-lane
// batch) and 128 (a 128-lane batch), swept into the cache as a commit
// does and into the peek rows as a peek does.
func BenchmarkIncrementalSweep(b *testing.B) {
	g, err := RandomConnected(4096, 1343, 12, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	ie := NewIncrementalEvaluator(NewEvaluator(1), 1)
	ie.Energy(g)
	for _, k := range []int{40, 128} {
		srcs := make([]int32, k)
		for i := range srcs {
			srcs[i] = int32(i)
		}
		b.Run("commit/sources="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ie.sweep(srcs, ie.cacheDest())
			}
		})
		b.Run("peek/sources="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ie.peekSweep(srcs)
			}
		})
	}
}
