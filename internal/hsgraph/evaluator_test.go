package hsgraph

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

// randomEvalGraph builds a graph for the differential tests, deliberately
// covering the regimes the evaluators must agree on: connected graphs,
// disconnected graphs (random edge deletion and forced two-component
// builds), empty switches, hosts piled onto few switches, and graphs with
// more than 64 host-bearing switches (multi-word batches).
func randomEvalGraph(t *testing.T, rnd *rng.Rand) *Graph {
	t.Helper()
	switch rnd.Intn(4) {
	case 0: // connected, well spread
		for {
			n := 8 + rnd.Intn(200)
			m := 2 + rnd.Intn(90)
			r := 4 + rnd.Intn(12)
			if !Feasible(n, m, r) {
				continue
			}
			g, err := RandomConnected(n, m, r, rnd)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	case 1: // random deletions: connected or disconnected
		for {
			n := 8 + rnd.Intn(120)
			m := 3 + rnd.Intn(40)
			r := 4 + rnd.Intn(10)
			if !Feasible(n, m, r) {
				continue
			}
			g, err := RandomConnected(n, m, r, rnd)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1+rnd.Intn(4) && g.NumEdges() > 0; i++ {
				a, b := g.Edge(rnd.Intn(g.NumEdges()))
				if err := g.Disconnect(a, b); err != nil {
					t.Fatal(err)
				}
			}
			return g
		}
	case 2: // two islands: always disconnected across them
		// m*r >= 48 ports for at most 34 hosts, so attachment always
		// terminates even with the wrap-around scan below.
		n := 4 + 2*rnd.Intn(16) // even, <= 34
		m := 6 + 2*rnd.Intn(10) // even, >= 6
		r := 8 + rnd.Intn(8)
		g := New(n, m, r)
		half := m / 2
		for h := 0; h < n; h++ {
			s := rnd.Intn(half)
			if h%2 == 1 {
				s += half
			}
			for g.Degree(s) >= r {
				s = (s + 1) % m
			}
			if err := g.AttachHost(h, s); err != nil {
				t.Fatal(err)
			}
		}
		connectIsland := func(lo, hi int) {
			for s := lo + 1; s < hi; s++ {
				if g.Degree(s) < r && g.Degree(s-1) < r {
					if err := g.Connect(s-1, s); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		connectIsland(0, half)
		connectIsland(half, m)
		return g
	default: // hosts concentrated on a few switches, many empty ones
		n := 6 + rnd.Intn(40)
		m := 6 + rnd.Intn(60)
		r := n + 4 // room to pile hosts up
		g := New(n, m, r)
		bearing := 1 + rnd.Intn(4)
		for h := 0; h < n; h++ {
			if err := g.AttachHost(h, rnd.Intn(bearing)); err != nil {
				t.Fatal(err)
			}
		}
		// Random path cover plus chords; may or may not touch the
		// host-bearing switches.
		for s := 1; s < m; s++ {
			if rnd.Intn(5) > 0 {
				if err := g.Connect(s-1, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < m/2; i++ {
			a, b := rnd.Intn(m), rnd.Intn(m)
			if a != b && !g.HasEdge(a, b) && g.Degree(a) < r && g.Degree(b) < r {
				if err := g.Connect(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		return g
	}
}

// TestEvaluatorDifferential is the equivalence proof behind the sharded
// engine: on >= 100 randomized graphs, the per-source BFS oracle
// (EvaluateSlow), the one-worker sweep (Graph.Evaluate) and the sharded
// engine (EvaluateParallel / Evaluator) must agree exactly on TotalPath,
// Diameter, HASPL and connectivity — for every worker count, including
// pools wider than the source word count.
func TestEvaluatorDifferential(t *testing.T) {
	rnd := rng.New(20250805)
	shared := NewEvaluator(3)
	defer shared.Close()
	trials, disconnected, multiword := 0, 0, 0
	for trials < 120 {
		g := randomEvalGraph(t, rnd)
		trials++
		slow := g.EvaluateSlow()
		fast := g.Evaluate()
		if fast != slow {
			t.Fatalf("trial %d %v: Evaluate %+v != EvaluateSlow %+v", trials, g, fast, slow)
		}
		if !slow.Connected {
			disconnected++
		}
		bearing := 0
		for s := 0; s < g.Switches(); s++ {
			if g.HostCount(s) > 0 {
				bearing++
			}
		}
		if bearing > 64 {
			multiword++
		}
		for _, workers := range []int{1, 2, 3, 8, bearing + 1} {
			if got := g.EvaluateParallel(workers); got != slow {
				t.Fatalf("trial %d %v workers=%d: EvaluateParallel %+v != EvaluateSlow %+v",
					trials, g, workers, got, slow)
			}
		}
		// A long-lived Evaluator must behave identically across graphs of
		// varying switch counts (buffer reuse) and repeated calls.
		if got := shared.Evaluate(g); got != slow {
			t.Fatalf("trial %d %v: shared Evaluator %+v != %+v", trials, g, got, slow)
		}
		if got := shared.Evaluate(g); got != slow {
			t.Fatalf("trial %d %v: repeated shared Evaluator call diverged", trials, g)
		}
		if e, ok := shared.Energy(g); ok != slow.Connected || (ok && e != slow.TotalPath) {
			t.Fatalf("trial %d %v: Energy (%d,%v) inconsistent with %+v", trials, g, e, ok, slow)
		}
	}
	if disconnected < 10 {
		t.Fatalf("generator produced only %d disconnected graphs in %d trials", disconnected, trials)
	}
	if multiword < 5 {
		t.Fatalf("generator produced only %d multi-word graphs in %d trials", multiword, trials)
	}
}

// TestEvaluatorTrivialRegimes pins the no-sweep shortcuts against the
// plain-BFS oracle: unattached hosts, a single host-bearing switch,
// and the single-host graph.
func TestEvaluatorTrivialRegimes(t *testing.T) {
	ev := NewEvaluator(4)
	defer ev.Close()

	unattached := New(3, 2, 4) // no hosts attached anywhere
	if got, want := ev.Evaluate(unattached), unattached.EvaluateSlow(); got != want {
		t.Fatalf("unattached hosts: %+v != %+v", got, want)
	}

	single := New(5, 3, 8) // all hosts on one switch, empty others
	for h := 0; h < 5; h++ {
		if err := single.AttachHost(h, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := single.EvaluateSlow()
	if got := ev.Evaluate(single); got != want || !got.Connected || got.HASPL != 2 {
		t.Fatalf("single bearing switch: %+v != %+v", ev.Evaluate(single), want)
	}
	if e, ok := ev.Energy(single); !ok || e != want.TotalPath {
		t.Fatalf("Energy on single bearing switch = (%d,%v), want (%d,true)", e, ok, want.TotalPath)
	}

	lone := New(1, 1, 3)
	if err := lone.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := ev.Evaluate(lone); got != lone.EvaluateSlow() {
		t.Fatalf("single host: %+v != %+v", got, lone.EvaluateSlow())
	}
}

// TestEvaluatorEnergyFailsFastOnDisconnection checks the early-exit
// contract: Energy reports disconnection (via the single-BFS pre-check)
// exactly when the full evaluation would.
func TestEvaluatorEnergyFailsFastOnDisconnection(t *testing.T) {
	rnd := rng.New(31)
	ev := NewEvaluator(2)
	defer ev.Close()
	g, err := RandomConnected(40, 12, 6, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ev.Energy(g); !ok {
		t.Fatal("connected graph reported disconnected")
	}
	// Cut the graph: remove every edge of switch 0's neighbourhood.
	for g.SwitchDegree(0) > 0 {
		nb := int(g.Neighbors(0)[0])
		if err := g.Disconnect(0, nb); err != nil {
			t.Fatal(err)
		}
	}
	if g.HostCount(0) == 0 {
		t.Skip("switch 0 carried no hosts after generation")
	}
	if _, ok := ev.Energy(g); ok {
		t.Fatal("isolated host-bearing switch not detected")
	}
	if met := ev.Evaluate(g); met.Connected {
		t.Fatal("full evaluation disagrees with Energy on connectivity")
	}
}

// TestEvaluatorZeroSteadyStateAllocs asserts the amortization contract:
// once an Evaluator has seen a switch count, further evaluations of
// same-sized graphs allocate nothing — serial and pooled alike. This is
// what keeps the SA hot path out of the garbage collector.
func TestEvaluatorZeroSteadyStateAllocs(t *testing.T) {
	rnd := rng.New(9)
	g, err := RandomConnected(256, 80, 8, rnd)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		ev := NewEvaluator(workers)
		ev.Evaluate(g) // warm up: grow scratch
		ev.Energy(g)
		if a := testing.AllocsPerRun(50, func() { ev.Evaluate(g) }); a != 0 {
			t.Errorf("workers=%d: Evaluate allocates %v per run in steady state", workers, a)
		}
		if a := testing.AllocsPerRun(50, func() { ev.Energy(g) }); a != 0 {
			t.Errorf("workers=%d: Energy allocates %v per run in steady state", workers, a)
		}
		ev.Close()
	}
}

// TestEvaluatorCloseIdempotent guards the pool teardown.
func TestEvaluatorCloseIdempotent(t *testing.T) {
	ev := NewEvaluator(3)
	ev.Close()
	ev.Close()
	serial := NewEvaluator(1)
	serial.Close()
	if NewEvaluator(0).Workers() != 1 || NewEvaluator(-2).Workers() != 1 {
		t.Fatal("worker floor not applied")
	}
}

// planeGraph builds a graph with the given host counts on its first
// len(hosts) switches plus empty extra switches, joined by a random path
// and random chords over the spare ports. A switch with more than r-2
// hosts stays off the path; one that fills all r ports stays isolated,
// which disconnects the graph.
func planeGraph(t *testing.T, rnd *rng.Rand, hosts []int, empty, r int) *Graph {
	t.Helper()
	n := 0
	for _, k := range hosts {
		n += k
	}
	m := len(hosts) + empty
	g := New(n, m, r)
	h := 0
	for s, k := range hosts {
		for i := 0; i < k; i++ {
			if err := g.AttachHost(h, s); err != nil {
				t.Fatal(err)
			}
			h++
		}
	}
	order := rnd.Perm(m)
	prev := -1
	for _, s := range order {
		if g.Degree(s) > r-2 {
			continue // no room for two path links: left isolated
		}
		if prev >= 0 {
			if err := g.Connect(prev, s); err != nil {
				t.Fatal(err)
			}
		}
		prev = s
	}
	for i := 0; i < 2*m; i++ {
		a, b := rnd.Intn(m), rnd.Intn(m)
		if a != b && !g.HasEdge(a, b) && g.Degree(a) < r && g.Degree(b) < r {
			if err := g.Connect(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestEvaluatorBitPlaneOracle checks the sweep kernel's host-count
// bit-planes against the plain-BFS oracle. Host counts cover every plane
// (0, 1, each power of two, values with several bits set, up to the
// radix) and the source counts leave ragged last words: 1, 63, 65 and
// 195 = 3·64+3 host-bearing switches, at 1, 2 and 8 workers.
func TestEvaluatorBitPlaneOracle(t *testing.T) {
	const r = 20
	counts := []int{1, 2, 3, 4, 5, 7, 8, 11, 15, 16, 18}
	rnd := rng.New(14)
	evs := []*Evaluator{NewEvaluator(1), NewEvaluator(2), NewEvaluator(8)}
	defer func() {
		for _, ev := range evs {
			ev.Close()
		}
	}()
	check := func(name string, g *Graph) {
		t.Helper()
		want := g.EvaluateSlow()
		for _, ev := range evs {
			if got := ev.Evaluate(g); got != want {
				t.Fatalf("%s workers=%d: Evaluate %+v, oracle %+v", name, ev.Workers(), got, want)
			}
			e, ok := ev.Energy(g)
			if ok != want.Connected || (ok && e != want.TotalPath) {
				t.Fatalf("%s workers=%d: Energy (%d, %v), oracle %+v", name, ev.Workers(), e, ok, want)
			}
		}
	}
	for _, bearing := range []int{1, 63, 65, 195} {
		for trial := 0; trial < 2; trial++ {
			hosts := make([]int, bearing)
			for i := range hosts {
				hosts[i] = counts[(i+trial)%len(counts)]
			}
			rnd.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
			g := planeGraph(t, rnd, hosts, 3+rnd.Intn(20), r)
			if !g.EvaluateSlow().Connected {
				t.Fatal("every switch has room for the path: the graph should be connected")
			}
			check("connected", g)
			// The same host counts plus one switch filled to the radix:
			// its plane is the highest, and it cannot connect.
			g = planeGraph(t, rnd, append(hosts, r), 3, r)
			if g.EvaluateSlow().Connected {
				t.Fatal("a switch with r hosts should be isolated")
			}
			check("radix-full switch", g)
		}
	}
}

// TestEvaluatorPoolLifecycle drives one pool through many rounds over
// growing and shrinking switch counts, closes it twice, and requires
// every pool goroutine to be gone once Close returns.
func TestEvaluatorPoolLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	basePool := poolGoroutines.Load()
	rnd := rng.New(3)
	var graphs []*Graph
	for _, size := range [][3]int{{64, 20, 8}, {256, 70, 10}, {32, 8, 6}, {384, 130, 9}, {96, 30, 7}} {
		g, err := RandomConnected(size[0], size[1], size[2], rnd)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	want := make([]int64, len(graphs))
	for i, g := range graphs {
		want[i] = g.EvaluateSlow().TotalPath
	}
	for _, workers := range []int{2, 3, 8} {
		ev := NewEvaluator(workers)
		for round := 0; round < 100; round++ {
			i := round % len(graphs)
			if round%7 == 3 {
				time.Sleep(300 * time.Microsecond) // let polling workers park
			}
			if e, ok := ev.Energy(graphs[i]); !ok || e != want[i] {
				t.Fatalf("workers=%d round %d: Energy (%d, %v), want %d", workers, round, e, ok, want[i])
			}
		}
		ev.Close()
		ev.Close()
		// Close returns once every worker has signalled its exit; a
		// worker may still be unwinding its last frames, so give the
		// count a moment to settle.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			runtime.Gosched()
		}
		if n > base {
			t.Fatalf("workers=%d: %d goroutines after Close, %d before the pool", workers, n, base)
		}
		if n := poolGoroutines.Load(); n != basePool {
			t.Fatalf("workers=%d: %d pool goroutines counted after Close, %d before", workers, n, basePool)
		}
	}
}

// TestPoolSpinCountsOpenPools checks that the decision to poll looks at
// every open pool, not one: two pools that each fit in GOMAXPROCS stop
// polling while together they do not, and the survivor polls again once
// the other closes. Both pools then evaluate concurrently, parking.
func TestPoolSpinCountsOpenPools(t *testing.T) {
	// Leave room for exactly one more 2-worker pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(int(poolGoroutines.Load()) + 2))
	g, err := RandomConnected(256, 80, 8, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	want := g.EvaluateSlow().TotalPath
	a := NewEvaluator(2)
	defer a.Close()
	if !a.spin() {
		t.Fatal("a lone pool that fits GOMAXPROCS does not poll")
	}
	b := NewEvaluator(2)
	if a.spin() || b.spin() {
		t.Fatal("two pools that together oversubscribe GOMAXPROCS poll")
	}
	var wg sync.WaitGroup
	for _, ev := range []*Evaluator{a, b} {
		wg.Add(1)
		go func(ev *Evaluator) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if e, ok := ev.Energy(g); !ok || e != want {
					t.Errorf("concurrent pools: Energy (%d, %v), want %d", e, ok, want)
					return
				}
			}
		}(ev)
	}
	wg.Wait()
	b.Close()
	if !a.spin() {
		t.Fatal("the remaining pool does not poll after the other closed")
	}
}
