// Package hsgraph implements the host-switch graph model of Yasudo et al.,
// "Order/Radix Problem: Towards Low End-to-End Latency Interconnection
// Networks" (ICPP 2017).
//
// A host-switch graph G = (H, S, E) has n host vertices of degree exactly 1,
// m switch vertices of degree at most r (the radix), switch-switch edges and
// host-switch edges. The central metric is the host-to-host average shortest
// path length (h-ASPL): because hosts have degree 1, the distance between
// hosts on switches a and b is d(a, b) + 2, so all metrics reduce to
// weighted all-pairs shortest paths over the switch graph.
package hsgraph

import (
	"errors"
	"fmt"
)

// Graph is a mutable host-switch graph. The zero value is not usable;
// construct with New. Graph is not safe for concurrent mutation; concurrent
// read-only metric evaluation is safe.
type Graph struct {
	n int // number of hosts (order)
	r int // ports per switch (radix)

	hostOf  []int32   // hostOf[h] = switch of host h, or -1 if unattached
	adj     [][]int32 // adj[s] = neighbouring switches of switch s
	hosts   []int32   // hosts[s] = number of hosts attached to switch s
	hostsAt [][]int32 // hostsAt[s] = hosts attached to switch s (unordered)
	hostPos []int32   // hostPos[h] = index of h within hostsAt[hostOf[h]]
	edges   [][2]int32
	// edgePos[a] maps neighbour b -> index in edges for a < b lookups;
	// we instead locate edges by scanning adj (deg <= r is small) and keep
	// edge list indices via posInList.
	posInList map[[2]int32]int32

	// Edge-mutation log for the incremental evaluator (see incremental.go).
	// While opLogOn, Connect/Disconnect append the applied operation so a
	// consumer can derive the net edge diff since its last sync without
	// rescanning the graph. The log is bounded: past maxOpLog pending
	// entries opOverflow is set and the consumer falls back to a full
	// rebuild. opEpoch identifies the consumer that armed the log, so a
	// second consumer attaching to the same graph invalidates the first
	// instead of silently sharing (and losing) entries.
	oplog      []edgeOp
	opLogOn    bool
	opOverflow bool
	opEpoch    uint64
}

// edgeOp is one logged switch-edge mutation.
type edgeOp struct {
	add  bool
	a, b int32
}

// maxOpLog bounds the pending operation log. An annealing move touches at
// most a handful of edges between evaluations; thousands of pending ops
// mean nobody is consuming the log, and a full rebuild is cheaper than an
// unbounded replay anyway.
const maxOpLog = 1 << 14

// startOpLog arms (or re-arms) the edge-mutation log and returns the new
// epoch. Any previous consumer's pending entries are discarded.
func (g *Graph) startOpLog() uint64 {
	g.opLogOn = true
	g.oplog = g.oplog[:0]
	g.opOverflow = false
	g.opEpoch++
	return g.opEpoch
}

// logEdgeOp appends one mutation to the armed log, tripping the overflow
// flag instead of growing without bound.
func (g *Graph) logEdgeOp(add bool, a, b int32) {
	if !g.opLogOn || g.opOverflow {
		return
	}
	if len(g.oplog) >= maxOpLog {
		g.opOverflow = true
		g.oplog = g.oplog[:0]
		return
	}
	g.oplog = append(g.oplog, edgeOp{add: add, a: a, b: b})
}

// New returns an empty host-switch graph with n hosts (all unattached),
// m switches and radix r. It panics if the parameters are senseless;
// callers constructing graphs from untrusted input should validate first.
func New(n, m, r int) *Graph {
	if n < 1 || m < 1 || r < 1 {
		panic(fmt.Sprintf("hsgraph: invalid parameters n=%d m=%d r=%d", n, m, r))
	}
	g := &Graph{
		n:         n,
		r:         r,
		hostOf:    make([]int32, n),
		adj:       make([][]int32, m),
		hosts:     make([]int32, m),
		hostsAt:   make([][]int32, m),
		hostPos:   make([]int32, n),
		posInList: make(map[[2]int32]int32),
	}
	for h := range g.hostOf {
		g.hostOf[h] = -1
		g.hostPos[h] = -1
	}
	return g
}

// Order returns n, the number of hosts.
func (g *Graph) Order() int { return g.n }

// Switches returns m, the number of switches.
func (g *Graph) Switches() int { return len(g.adj) }

// Radix returns r, the port budget of each switch.
func (g *Graph) Radix() int { return g.r }

// Degree returns the total degree (switch neighbours + attached hosts) of
// switch s.
func (g *Graph) Degree(s int) int { return len(g.adj[s]) + int(g.hosts[s]) }

// SwitchDegree returns the number of switch neighbours of switch s.
func (g *Graph) SwitchDegree(s int) int { return len(g.adj[s]) }

// HostCount returns k_s, the number of hosts attached to switch s.
func (g *Graph) HostCount(s int) int { return int(g.hosts[s]) }

// SwitchOf returns the switch of host h, or -1 if h is unattached.
func (g *Graph) SwitchOf(h int) int { return int(g.hostOf[h]) }

// Neighbors returns the switch neighbours of s. The returned slice is the
// graph's internal storage; callers must not modify it.
func (g *Graph) Neighbors(s int) []int32 { return g.adj[s] }

// NumEdges returns the number of switch-switch edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the i-th switch-switch edge. The edge order is unspecified
// but deterministic for a given mutation history.
func (g *Graph) Edge(i int) (a, b int) {
	e := g.edges[i]
	return int(e[0]), int(e[1])
}

func edgeKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// HasEdge reports whether switches a and b are adjacent.
func (g *Graph) HasEdge(a, b int) bool {
	_, ok := g.posInList[edgeKey(int32(a), int32(b))]
	return ok
}

// AttachHost attaches host h to switch s. It returns an error if h is
// already attached or s has no free port.
func (g *Graph) AttachHost(h, s int) error {
	if h < 0 || h >= g.n {
		return fmt.Errorf("hsgraph: host %d out of range", h)
	}
	if s < 0 || s >= len(g.adj) {
		return fmt.Errorf("hsgraph: switch %d out of range", s)
	}
	if g.hostOf[h] != -1 {
		return fmt.Errorf("hsgraph: host %d already attached to switch %d", h, g.hostOf[h])
	}
	if g.Degree(s) >= g.r {
		return fmt.Errorf("hsgraph: switch %d has no free port (radix %d)", s, g.r)
	}
	g.hostOf[h] = int32(s)
	g.hosts[s]++
	g.hostPos[h] = int32(len(g.hostsAt[s]))
	g.hostsAt[s] = append(g.hostsAt[s], int32(h))
	return nil
}

// HostsOn returns the hosts attached to switch s. The returned slice is
// internal storage in unspecified order; callers must not modify it.
func (g *Graph) HostsOn(s int) []int32 { return g.hostsAt[s] }

// AnyHostOn returns some host attached to switch s, or -1 if none.
func (g *Graph) AnyHostOn(s int) int {
	if len(g.hostsAt[s]) == 0 {
		return -1
	}
	return int(g.hostsAt[s][0])
}

// DetachHost detaches host h from its switch. It returns an error if h is
// not attached.
func (g *Graph) DetachHost(h int) error {
	if h < 0 || h >= g.n {
		return fmt.Errorf("hsgraph: host %d out of range", h)
	}
	s := g.hostOf[h]
	if s == -1 {
		return fmt.Errorf("hsgraph: host %d is not attached", h)
	}
	g.hostOf[h] = -1
	g.hosts[s]--
	// Swap-remove h from hostsAt[s], updating the moved host's position.
	list := g.hostsAt[s]
	pos := g.hostPos[h]
	last := int32(len(list) - 1)
	if pos != last {
		moved := list[last]
		list[pos] = moved
		g.hostPos[moved] = pos
	}
	g.hostsAt[s] = list[:last]
	g.hostPos[h] = -1
	return nil
}

// MoveHost reattaches host h to switch to. It is equivalent to
// DetachHost+AttachHost but restores the original attachment on failure.
func (g *Graph) MoveHost(h, to int) error {
	from := g.SwitchOf(h)
	if from == -1 {
		return fmt.Errorf("hsgraph: host %d is not attached", h)
	}
	if err := g.DetachHost(h); err != nil {
		return err
	}
	if err := g.AttachHost(h, to); err != nil {
		if e2 := g.AttachHost(h, from); e2 != nil {
			panic("hsgraph: MoveHost could not restore attachment: " + e2.Error())
		}
		return err
	}
	return nil
}

// Connect adds a switch-switch edge {a, b}. It returns an error on
// self-loops, duplicate edges, or exhausted ports.
func (g *Graph) Connect(a, b int) error {
	if a == b {
		return fmt.Errorf("hsgraph: self-loop on switch %d", a)
	}
	if a < 0 || a >= len(g.adj) || b < 0 || b >= len(g.adj) {
		return fmt.Errorf("hsgraph: switch pair (%d,%d) out of range", a, b)
	}
	if g.HasEdge(a, b) {
		return fmt.Errorf("hsgraph: edge {%d,%d} already exists", a, b)
	}
	if g.Degree(a) >= g.r {
		return fmt.Errorf("hsgraph: switch %d has no free port", a)
	}
	if g.Degree(b) >= g.r {
		return fmt.Errorf("hsgraph: switch %d has no free port", b)
	}
	key := edgeKey(int32(a), int32(b))
	g.adj[a] = append(g.adj[a], int32(b))
	g.adj[b] = append(g.adj[b], int32(a))
	g.posInList[key] = int32(len(g.edges))
	g.edges = append(g.edges, key)
	g.logEdgeOp(true, key[0], key[1])
	return nil
}

// Disconnect removes the switch-switch edge {a, b}. It returns an error if
// the edge does not exist.
func (g *Graph) Disconnect(a, b int) error {
	key := edgeKey(int32(a), int32(b))
	pos, ok := g.posInList[key]
	if !ok {
		return fmt.Errorf("hsgraph: edge {%d,%d} does not exist", a, b)
	}
	removeNeighbor(&g.adj[a], int32(b))
	removeNeighbor(&g.adj[b], int32(a))
	last := int32(len(g.edges) - 1)
	if pos != last {
		moved := g.edges[last]
		g.edges[pos] = moved
		g.posInList[moved] = pos
	}
	g.edges = g.edges[:last]
	delete(g.posInList, key)
	g.logEdgeOp(false, key[0], key[1])
	return nil
}

func removeNeighbor(adj *[]int32, v int32) {
	a := *adj
	for i, u := range a {
		if u == v {
			a[i] = a[len(a)-1]
			*adj = a[:len(a)-1]
			return
		}
	}
	panic("hsgraph: adjacency list inconsistent with edge set")
}

// Clone returns a deep copy of g. The edge-mutation log is consumer state,
// not graph state, and is not copied: clones start with logging disarmed.
func (g *Graph) Clone() *Graph {
	c := &Graph{}
	g.CopyInto(c)
	return c
}

// CopyInto overwrites dst with a deep copy of g, reusing dst's slices and
// map: once dst has held a graph of g's size, the copy allocates nothing.
// Every list keeps g's storage order, so dst is then indistinguishable
// from g to every method, the move samplers' edge and adjacency indexing
// included. As with Clone, the edge-mutation log is not copied: dst's
// log is disarmed, so an incremental evaluator that was attached to dst
// rebuilds instead of replaying stale entries. dst must not share storage
// with g (a graph from New, Clone or CopyInto never does).
func (g *Graph) CopyInto(dst *Graph) {
	if dst == g {
		return
	}
	dst.n, dst.r = g.n, g.r
	dst.hostOf = append(dst.hostOf[:0], g.hostOf...)
	dst.hosts = append(dst.hosts[:0], g.hosts...)
	dst.hostPos = append(dst.hostPos[:0], g.hostPos...)
	dst.edges = append(dst.edges[:0], g.edges...)
	dst.adj = copyLists(dst.adj, g.adj)
	dst.hostsAt = copyLists(dst.hostsAt, g.hostsAt)
	if dst.posInList == nil {
		dst.posInList = make(map[[2]int32]int32, len(g.posInList))
	} else {
		clear(dst.posInList)
	}
	for k, v := range g.posInList {
		dst.posInList[k] = v
	}
	dst.oplog = dst.oplog[:0]
	dst.opLogOn = false
	dst.opOverflow = false
}

// copyLists copies every list of src into dst's lists, reusing their
// storage, and returns dst resized to len(src).
func copyLists(dst, src [][]int32) [][]int32 {
	if cap(dst) < len(src) {
		dst = append(dst[:cap(dst)], make([][]int32, len(src)-cap(dst))...)
	}
	dst = dst[:len(src)]
	for i, l := range src {
		dst[i] = append(dst[i][:0], l...)
	}
	return dst
}

// ErrNotConnected is returned by validators and metrics when some pair of
// hosts has no connecting path.
var ErrNotConnected = errors.New("hsgraph: graph does not connect all hosts")

// Validate checks structural invariants: every host attached exactly once,
// every switch within its port budget, adjacency symmetric and loop-free,
// and the host-bearing part of the switch graph connected. Redundant
// (unused) switches are permitted — the paper's Fig. 8 graphs contain them —
// but switches must not exceed radix.
func (g *Graph) Validate() error {
	counted := make([]int32, len(g.adj))
	for h, s := range g.hostOf {
		if s == -1 {
			return fmt.Errorf("hsgraph: host %d unattached", h)
		}
		if int(s) >= len(g.adj) {
			return fmt.Errorf("hsgraph: host %d attached to nonexistent switch %d", h, s)
		}
		counted[s]++
	}
	for s := range g.adj {
		if counted[s] != g.hosts[s] {
			return fmt.Errorf("hsgraph: switch %d host count %d inconsistent (actual %d)", s, g.hosts[s], counted[s])
		}
		if int32(len(g.hostsAt[s])) != g.hosts[s] {
			return fmt.Errorf("hsgraph: switch %d host index has %d entries, count says %d", s, len(g.hostsAt[s]), g.hosts[s])
		}
		for i, h := range g.hostsAt[s] {
			if g.hostOf[h] != int32(s) || g.hostPos[h] != int32(i) {
				return fmt.Errorf("hsgraph: host index corrupt at switch %d entry %d (host %d)", s, i, h)
			}
		}
		if g.Degree(s) > g.r {
			return fmt.Errorf("hsgraph: switch %d degree %d exceeds radix %d", s, g.Degree(s), g.r)
		}
		seen := map[int32]bool{}
		for _, t := range g.adj[s] {
			if int(t) == s {
				return fmt.Errorf("hsgraph: self-loop on switch %d", s)
			}
			if seen[t] {
				return fmt.Errorf("hsgraph: duplicate edge {%d,%d}", s, t)
			}
			seen[t] = true
			if !g.HasEdge(s, int(t)) {
				return fmt.Errorf("hsgraph: adjacency and edge set disagree on {%d,%d}", s, t)
			}
		}
	}
	if !g.HostsConnected() {
		return ErrNotConnected
	}
	return nil
}

// HostsConnected reports whether every pair of hosts is joined by a path.
// Switches with no hosts need not be reachable.
func (g *Graph) HostsConnected() bool {
	if g.n == 0 {
		return true
	}
	start := -1
	total := 0
	for s := range g.adj {
		if g.hosts[s] > 0 {
			total++
			if start == -1 {
				start = s
			}
		}
	}
	for _, s := range g.hostOf {
		if s == -1 {
			return false
		}
	}
	if start == -1 {
		return false
	}
	seen := make([]bool, len(g.adj))
	queue := []int32{int32(start)}
	seen[start] = true
	reached := 1 // start is host-bearing by construction
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				if g.hosts[u] > 0 {
					reached++
				}
				queue = append(queue, u)
			}
		}
	}
	return reached == total
}

// HostDistribution returns a histogram hist[k] = number of switches with
// exactly k attached hosts, for k in [0, r].
func (g *Graph) HostDistribution() []int {
	hist := make([]int, g.r+1)
	for _, k := range g.hosts {
		hist[k]++
	}
	return hist
}

// UsedSwitches returns the number of switches that lie on at least one
// host-to-host shortest path. A switch is "used" if it carries a host or is
// an interior vertex of some shortest path between host-bearing switches.
func (g *Graph) UsedSwitches() int {
	m := len(g.adj)
	used := make([]bool, m)
	for s := 0; s < m; s++ {
		if g.hosts[s] > 0 {
			used[s] = true
		}
	}
	// A switch v is interior to a shortest a->b path iff
	// d(a,v) + d(v,b) == d(a,b). Compute all-pairs distances once.
	dist := g.SwitchDistances()
	bearing := []int{}
	for s := 0; s < m; s++ {
		if g.hosts[s] > 0 {
			bearing = append(bearing, s)
		}
	}
	for _, a := range bearing {
		for _, b := range bearing {
			if a >= b || dist[a][b] < 0 {
				continue
			}
			for v := 0; v < m; v++ {
				if used[v] || dist[a][v] < 0 || dist[v][b] < 0 {
					continue
				}
				if dist[a][v]+dist[v][b] == dist[a][b] {
					used[v] = true
				}
			}
		}
	}
	count := 0
	for _, u := range used {
		if u {
			count++
		}
	}
	return count
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("hsgraph(n=%d m=%d r=%d edges=%d)", g.n, len(g.adj), g.r, len(g.edges))
}
