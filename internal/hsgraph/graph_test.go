package hsgraph

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

// fig1Graph builds a graph in the spirit of the paper's Fig. 1:
// n = 16, m = 4, r = 6; four switches in a ring, four hosts each.
func fig1Graph(t *testing.T) *Graph {
	t.Helper()
	g, err := Ring(16, 4, 6)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	return g
}

func TestNewBasics(t *testing.T) {
	g := New(8, 3, 5)
	if g.Order() != 8 || g.Switches() != 3 || g.Radix() != 5 {
		t.Fatalf("unexpected parameters: %v", g)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("fresh graph has %d edges", g.NumEdges())
	}
	for h := 0; h < 8; h++ {
		if g.SwitchOf(h) != -1 {
			t.Fatalf("fresh host %d attached to %d", h, g.SwitchOf(h))
		}
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, tc := range [][3]int{{0, 1, 3}, {1, 0, 3}, {1, 1, 0}, {-1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", tc)
				}
			}()
			New(tc[0], tc[1], tc[2])
		}()
	}
}

func TestAttachDetach(t *testing.T) {
	g := New(4, 2, 3)
	if err := g.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if g.SwitchOf(0) != 0 || g.HostCount(0) != 1 || g.Degree(0) != 1 {
		t.Fatal("attachment not recorded")
	}
	if err := g.AttachHost(0, 1); err == nil {
		t.Fatal("double attach allowed")
	}
	if err := g.AttachHost(9, 0); err == nil {
		t.Fatal("out-of-range host allowed")
	}
	if err := g.AttachHost(1, 5); err == nil {
		t.Fatal("out-of-range switch allowed")
	}
	if err := g.DetachHost(0); err != nil {
		t.Fatal(err)
	}
	if g.SwitchOf(0) != -1 || g.HostCount(0) != 0 {
		t.Fatal("detachment not recorded")
	}
	if err := g.DetachHost(0); err == nil {
		t.Fatal("double detach allowed")
	}
}

func TestRadixEnforced(t *testing.T) {
	g := New(5, 2, 3)
	for h := 0; h < 3; h++ {
		if err := g.AttachHost(h, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AttachHost(3, 0); err == nil {
		t.Fatal("radix exceeded by host attach")
	}
	if err := g.Connect(0, 1); err == nil {
		t.Fatal("radix exceeded by edge")
	}
}

func TestConnectDisconnect(t *testing.T) {
	g := New(1, 4, 4)
	if err := g.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if err := g.Connect(1, 0); err == nil {
		t.Fatal("duplicate edge allowed")
	}
	if err := g.Connect(2, 2); err == nil {
		t.Fatal("self loop allowed")
	}
	if err := g.Connect(-1, 2); err == nil {
		t.Fatal("out of range switch allowed")
	}
	if err := g.Disconnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.NumEdges() != 0 {
		t.Fatal("edge not removed")
	}
	if err := g.Disconnect(0, 1); err == nil {
		t.Fatal("removing missing edge allowed")
	}
}

func TestEdgeListStaysConsistent(t *testing.T) {
	g := New(1, 6, 6)
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}
	for _, p := range pairs {
		if err := g.Connect(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Disconnect(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Disconnect(5, 0); err != nil {
		t.Fatal(err)
	}
	// Every edge returned by Edge must exist per HasEdge, and the count of
	// adjacency entries must be twice the edge count.
	deg := 0
	for s := 0; s < 6; s++ {
		deg += g.SwitchDegree(s)
	}
	if deg != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*edges %d", deg, 2*g.NumEdges())
	}
	for i := 0; i < g.NumEdges(); i++ {
		a, b := g.Edge(i)
		if !g.HasEdge(a, b) {
			t.Fatalf("edge list entry {%d,%d} missing from edge set", a, b)
		}
	}
}

func TestMoveHost(t *testing.T) {
	g := New(2, 2, 2)
	if err := g.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AttachHost(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.MoveHost(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.SwitchOf(0) != 1 || g.HostCount(0) != 0 || g.HostCount(1) != 2 {
		t.Fatal("move not applied")
	}
	// Switch 1 now full (radix 2): moving host 1 to a full switch must fail
	// and restore the original attachment.
	g2 := New(3, 2, 2)
	for h, s := range []int{0, 1, 1} {
		if err := g2.AttachHost(h, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := g2.MoveHost(0, 1); err == nil {
		t.Fatal("move to full switch allowed")
	}
	if g2.SwitchOf(0) != 0 {
		t.Fatal("failed move did not restore attachment")
	}
}

func TestValidateGood(t *testing.T) {
	g := fig1Graph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestValidateUnattachedHost(t *testing.T) {
	g := New(2, 2, 3)
	if err := g.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("graph with unattached host validated")
	}
}

func TestValidateDisconnected(t *testing.T) {
	g := New(2, 2, 3)
	if err := g.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AttachHost(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("disconnected graph validated")
	}
	if !strings.Contains(g.Validate().Error(), "connect") {
		t.Fatalf("unexpected error: %v", g.Validate())
	}
}

func TestHostsConnectedIgnoresUnusedComponents(t *testing.T) {
	// Hosts all on switches 0,1 (connected); switch 2 isolated and empty.
	g := New(4, 3, 4)
	for h, s := range []int{0, 0, 1, 1} {
		if err := g.AttachHost(h, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HostsConnected() {
		t.Fatal("isolated empty switch should not break host connectivity")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := fig1Graph(t)
	c := g.Clone()
	if !Equal(g, c) {
		t.Fatal("clone not equal to original")
	}
	if err := c.Disconnect(0, 1); err != nil {
		t.Fatal(err)
	}
	// Disconnecting freed one port on switch 1; move host 0 there.
	if err := c.MoveHost(0, 1); err != nil {
		t.Fatal(err)
	}
	if Equal(g, c) {
		t.Fatal("mutating clone affected original (Equal)")
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("mutating clone removed edge from original")
	}
	if g.SwitchOf(0) != 0 {
		t.Fatal("mutating clone moved host in original")
	}
}

// TestCopyIntoMatchesClone: CopyInto (which Clone runs on a fresh graph)
// must leave a reused dst indistinguishable from the source — same state
// bytes (which record every list in storage order), same edge indexing —
// across growing and shrinking graphs,
// without sharing storage with the source and, once dst has held a graph
// of the source's size, without allocating.
func TestCopyIntoMatchesClone(t *testing.T) {
	rnd := rng.New(4)
	var dst *Graph
	for _, size := range [][3]int{{64, 20, 8}, {256, 70, 10}, {40, 12, 6}, {256, 70, 10}} {
		g, err := RandomConnected(size[0], size[1], size[2], rnd)
		if err != nil {
			t.Fatal(err)
		}
		// Reorder the storage the way annealing does.
		for i := 0; i < 50; i++ {
			a, b := g.Edge(rnd.Intn(g.NumEdges()))
			if err := g.Disconnect(a, b); err != nil {
				t.Fatal(err)
			}
			if err := g.Connect(a, b); err != nil {
				t.Fatal(err)
			}
		}
		if dst == nil {
			dst = g.Clone()
		}
		g.CopyInto(dst)
		if string(dst.MarshalState()) != string(g.MarshalState()) {
			t.Fatalf("%v: CopyInto state differs from the source", size)
		}
		for i := 0; i < g.NumEdges(); i++ {
			a, b := g.Edge(i)
			if c, d := dst.Edge(i); a != c || b != d {
				t.Fatalf("%v: edge %d is {%d,%d} in the copy, {%d,%d} in the source", size, i, c, d, a, b)
			}
		}
		a, b := dst.Edge(0)
		if err := dst.Disconnect(a, b); err != nil {
			t.Fatal(err)
		}
		if !g.HasEdge(a, b) {
			t.Fatalf("%v: mutating the copy changed the source", size)
		}
		g.CopyInto(dst)
		if allocs := testing.AllocsPerRun(20, func() { g.CopyInto(dst) }); allocs != 0 {
			t.Fatalf("%v: CopyInto allocates %v per call into a same-size graph", size, allocs)
		}
	}
}

func TestHostDistribution(t *testing.T) {
	g := New(5, 3, 6)
	for h, s := range []int{0, 0, 0, 1, 2} {
		if err := g.AttachHost(h, s); err != nil {
			t.Fatal(err)
		}
	}
	hist := g.HostDistribution()
	want := []int{0, 2, 0, 1, 0, 0, 0} // k=1 twice, k=3 once
	for k, c := range want {
		if hist[k] != c {
			t.Fatalf("hist[%d] = %d, want %d (full: %v)", k, hist[k], c, hist)
		}
	}
}

func TestUsedSwitches(t *testing.T) {
	// Path of 3 switches, hosts only at both ends: the middle switch is
	// still used (it is interior to the shortest path).
	g := New(2, 3, 3)
	if err := g.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AttachHost(1, 2); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.UsedSwitches(); got != 3 {
		t.Fatalf("UsedSwitches = %d, want 3", got)
	}
	// Add a pendant switch hanging off the middle: unused.
	g2 := New(2, 4, 3)
	if err := g2.AttachHost(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g2.AttachHost(1, 2); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}} {
		if err := g2.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := g2.UsedSwitches(); got != 3 {
		t.Fatalf("UsedSwitches with pendant = %d, want 3", got)
	}
}

func TestRandomGraphValidates(t *testing.T) {
	rnd := rng.New(11)
	for i := 0; i < 25; i++ {
		n := 10 + rnd.Intn(60)
		m := 3 + rnd.Intn(12)
		r := 4 + rnd.Intn(12)
		if !Feasible(n, m, r) {
			continue
		}
		g, err := RandomConnected(n, m, r, rnd)
		if err != nil {
			t.Fatalf("RandomConnected(n=%d,m=%d,r=%d): %v", n, m, r, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("random graph invalid (n=%d,m=%d,r=%d): %v", n, m, r, err)
		}
	}
}
