package simnet_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/hsgraph"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// Golden bit-identity: the simulated time and flow count of fixed NPB
// programs on a fixed random fabric, pinned to their exact float64 bit
// patterns. Any change to the event loop, the flow table or the max-min
// allocation that moves a single simulated bit fails here. The values were
// recorded from the map-backed flow table that preceded the id-ordered one.

func goldenNetwork(t *testing.T) (*hsgraph.Graph, *simnet.Network) {
	t.Helper()
	g, err := hsgraph.RandomConnected(64, 16, 8, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := simnet.NewNetwork(g, simnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g, nw
}

func goldenRun(t *testing.T, nw *simnet.Network, bench string, ranks int, cfg mpi.Config) mpi.Stats {
	t.Helper()
	spec, err := npb.New(bench, npb.ClassS, ranks)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mpi.Run(nw, ranks, cfg, spec.Program())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// traceDigest hashes a flow tracer's full event sequence, floats by bit
// pattern, so reordering or perturbing any record changes it.
func traceDigest(evs []simnet.FlowEvent) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, e := range evs {
		put(uint64(e.Kind))
		put(math.Float64bits(e.Time))
		put(uint64(e.ID))
		put(uint64(e.Src))
		put(uint64(e.Dst))
		put(math.Float64bits(e.Bytes))
		put(uint64(len(e.Route)))
		for _, l := range e.Route {
			put(uint64(l))
		}
	}
	return h.Sum64()
}

func TestGoldenNPBElapsed(t *testing.T) {
	_, nw := goldenNetwork(t)
	for _, c := range []struct {
		bench   string
		elapsed uint64
		flows   int64
	}{
		{"CG", 0x3f84c6e19db6ac3b, 107400},
		{"IS", 0x3f5ef065d922c618, 21600},
		{"MG", 0x3f4055c1303f159c, 6784},
	} {
		st := goldenRun(t, nw, c.bench, 32, mpi.Config{})
		if got := math.Float64bits(st.Elapsed); got != c.elapsed || st.FlowsCompleted != c.flows {
			t.Errorf("%s: Elapsed bits %#x (%v), FlowsCompleted %d; want %#x, %d",
				c.bench, got, st.Elapsed, st.FlowsCompleted, c.elapsed, c.flows)
		}
	}
}

// TestGoldenLinkDownTrace pins a run that loses fabric links mid-flight,
// so the reroute path of the flow table is covered, together with the
// complete flow lifecycle sequence the tracer saw.
func TestGoldenLinkDownTrace(t *testing.T) {
	g, nw := goldenNetwork(t)
	var downs []mpi.LinkDown
	for i := 0; i < 6; i++ {
		a, b := g.Edge(5 * i)
		downs = append(downs, mpi.LinkDown{At: float64(i+1) * 1.3e-3, A: a, B: b})
	}
	ftr := &simnet.FlowTracer{}
	st := goldenRun(t, nw, "CG", 32, mpi.Config{LinkDowns: downs, FlowTracer: ftr})
	reroutes := countKind(ftr.Events(), simnet.FlowReroute)
	if reroutes == 0 {
		t.Fatal("no flow was rerouted; the fixture no longer exercises the failure path")
	}
	const (
		wantElapsed = 0x3f85f9019365e2e7
		wantFlows   = 107400
		wantFailed  = 0
		wantEvents  = 214804
		wantDigest  = 0x593623d3f38c04c6
	)
	if got := math.Float64bits(st.Elapsed); got != wantElapsed || st.FlowsCompleted != wantFlows || st.FlowsFailed != wantFailed {
		t.Errorf("Elapsed bits %#x (%v), FlowsCompleted %d, FlowsFailed %d; want %#x, %d, %d",
			got, st.Elapsed, st.FlowsCompleted, st.FlowsFailed, uint64(wantElapsed), wantFlows, wantFailed)
	}
	if n, d := len(ftr.Events()), traceDigest(ftr.Events()); n != wantEvents || d != wantDigest {
		t.Errorf("trace: %d events, digest %#x; want %d, %#x (%d reroutes)", n, d, wantEvents, uint64(wantDigest), reroutes)
	}
}

// TestGoldenInFlightFailure pins a raw simnet run in which a switch is cut
// off while bulk flows to its hosts are in flight, so flows leave the
// table by failure as well as by completion.
func TestGoldenInFlightFailure(t *testing.T) {
	g, nw := goldenNetwork(t)
	s := simnet.NewSim(nw)
	ftr := &simnet.FlowTracer{}
	s.Tracer = ftr
	for i := 0; i < 32; i++ {
		i := i
		s.Spawn(i, func(p *simnet.Proc) {
			for round := 1; round <= 2; round++ {
				sg, err := s.StartFlow(i, (i+7*round)%64, float64(1e6+1e4*i))
				if err != nil {
					return // destination cut off before this round began
				}
				p.Wait(sg)
			}
		})
	}
	for i := 0; i < 3; i++ {
		a, b := g.Edge(4 * i)
		if err := s.ScheduleLinkDown(5e-5*float64(i+1), a, b); err != nil {
			t.Fatal(err)
		}
	}
	sw := g.SwitchOf(40)
	for _, nb := range g.Neighbors(sw) {
		if err := s.ScheduleLinkDown(1e-4, sw, int(nb)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	inFlightFails := 0
	for _, e := range ftr.Events() {
		if e.Kind == simnet.FlowFail && e.ID != 0 { // ID 0: failed in its latency window
			inFlightFails++
		}
	}
	if countKind(ftr.Events(), simnet.FlowReroute) == 0 || inFlightFails == 0 {
		t.Fatalf("%d in-flight failures: the fixture no longer exercises reroute and in-flight failure", inFlightFails)
	}
	const (
		wantElapsed = 0x3f57b9e060fe4798
		wantFlows   = 56
		wantFailed  = 4
		wantEvents  = 126
		wantDigest  = 0x9300faf0e0a5eb69
	)
	if got := math.Float64bits(s.Now()); got != wantElapsed || s.FlowsCompleted != wantFlows || s.FlowsFailed != wantFailed {
		t.Errorf("Elapsed bits %#x (%v), FlowsCompleted %d, FlowsFailed %d; want %#x, %d, %d",
			got, s.Now(), s.FlowsCompleted, s.FlowsFailed, uint64(wantElapsed), wantFlows, wantFailed)
	}
	if n, d := len(ftr.Events()), traceDigest(ftr.Events()); n != wantEvents || d != wantDigest {
		t.Errorf("trace: %d events, digest %#x; want %d, %#x", n, d, wantEvents, uint64(wantDigest))
	}
}

func countKind(evs []simnet.FlowEvent, k simnet.FlowEventKind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestDeterministicByteAccounting repeats one program and requires the
// byte totals to match bit for bit: BytesMoved, the per-link totals and
// the bucketed link series are float sums whose value depends on the
// order flows are drained in.
func TestDeterministicByteAccounting(t *testing.T) {
	g, err := hsgraph.RandomConnected(128, 32, 8, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := simnet.NewNetwork(g, simnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := npb.New("MG", npb.ClassB, 64)
	if err != nil {
		t.Fatal(err)
	}
	spec.Iterations = 1
	cfg := mpi.Config{TrackLinkStats: true, LinkSeriesBucket: 5e-5}
	var first mpi.Stats
	for run := 0; run < 6; run++ {
		st, err := mpi.Run(nw, 64, cfg, spec.Program())
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = st
			continue
		}
		if a, b := math.Float64bits(first.BytesMoved), math.Float64bits(st.BytesMoved); a != b {
			t.Errorf("run %d: BytesMoved bits %#x, first run %#x", run, b, a)
		}
		for l := range st.Links {
			if a, b := math.Float64bits(first.Links[l].Bytes), math.Float64bits(st.Links[l].Bytes); a != b {
				t.Errorf("run %d: link %d bytes bits %#x, first run %#x", run, l, b, a)
				break
			}
		}
		for b, row := range st.LinkSeries {
			for l, v := range row {
				if math.Float64bits(v) != math.Float64bits(first.LinkSeries[b][l]) {
					t.Fatalf("run %d: link series bucket %d link %d differs", run, b, l)
				}
			}
		}
	}
}
