package simnet

import "fmt"

// Link failures. A Network is immutable and may be shared by many Sims, so
// failure state lives in the Sim as a copy-on-write view of the switch
// graph: the first ScheduleLinkDown clones the adjacency, and every
// failure recomputes the private distance matrix. Routing (fluid flows and
// packet messages alike) resolves paths against this view.
//
// Failure semantics: when a link goes down, in-flight fluid flows crossing
// it are rerouted over the surviving fabric and keep their remaining
// bytes (the extra path latency is not re-paid — the fluid model already
// abstracts per-packet latency away mid-transfer). Flows whose destination
// becomes unreachable complete immediately as failed: their completion
// signal fires so blocked processes do not deadlock, and FlowsFailed
// counts them. In-flight packets (packet mode) keep the path they were
// launched on; only packets sent after the failure see the new routes.
type failState struct {
	adj  [][]int32 // private switch adjacency, downed links removed
	dist [][]int16 // private all-pairs switch distances
	down map[int32]bool
}

// route resolves a host-to-host path under the sim's failure view (the
// pristine network when nothing has failed).
func (s *Sim) route(src, dst int) ([]int32, error) {
	if s.fail == nil {
		return s.net.Route(src, dst)
	}
	return s.net.routeOn(src, dst, s.fail.adj, s.fail.dist)
}

// LinkIsDown reports whether the switch-switch link {a, b} has failed.
func (s *Sim) LinkIsDown(a, b int) bool {
	if s.fail == nil {
		return false
	}
	n := s.net.hosts
	id, ok := s.net.outLink[int32(n+a)][int32(n+b)]
	return ok && s.fail.down[id]
}

// ScheduleLinkDown arranges for the switch-switch link {a, b} to fail at
// absolute simulated time at (>= now). The link must exist in the
// network; failing it twice is a no-op. Call before or during Run.
func (s *Sim) ScheduleLinkDown(at float64, a, b int) error {
	m := s.net.switches
	if a < 0 || a >= m || b < 0 || b >= m || a == b {
		return fmt.Errorf("simnet: switch pair (%d,%d) out of range", a, b)
	}
	n := s.net.hosts
	if _, ok := s.net.outLink[int32(n+a)][int32(n+b)]; !ok {
		return fmt.Errorf("simnet: no link between switches %d and %d", a, b)
	}
	if at < s.now {
		return fmt.Errorf("simnet: link-down time %v is in the past (now %v)", at, s.now)
	}
	s.after(at-s.now, func() { s.linkDown(int32(a), int32(b)) })
	return nil
}

// linkDown applies the failure: updates the private topology view, then
// reroutes or fails the active flows that crossed the link.
func (s *Sim) linkDown(a, b int32) {
	if s.fail == nil {
		adj := make([][]int32, len(s.net.swAdj))
		for i, ns := range s.net.swAdj {
			adj[i] = append([]int32(nil), ns...)
		}
		s.fail = &failState{adj: adj, down: make(map[int32]bool)}
	}
	n := int32(s.net.hosts)
	fwd := s.net.outLink[n+a][n+b]
	if s.fail.down[fwd] {
		return
	}
	s.fail.down[fwd] = true
	s.fail.down[s.net.outLink[n+b][n+a]] = true
	removeNeighborSw(&s.fail.adj[a], b)
	removeNeighborSw(&s.fail.adj[b], a)
	s.recomputeFailDist()

	// Reroute affected flows in id order (the table's order) so the
	// outcome, including the firing order of failed flows' signals, is
	// deterministic.
	affected, failed := false, 0
	for _, f := range s.flows {
		if !s.crossesDownLink(f) {
			continue
		}
		affected = true
		links, err := s.route(f.src, f.dst)
		if err != nil {
			f.gone = true
			failed++
			s.FlowsFailed++
			s.Tracer.record(FlowEvent{Kind: FlowFail, Time: s.now, ID: f.id, Src: f.src, Dst: f.dst, Bytes: f.remaining})
			s.fire(f.done)
			continue
		}
		f.links = links
		if s.Tracer != nil {
			s.Tracer.record(FlowEvent{Kind: FlowReroute, Time: s.now, ID: f.id, Src: f.src, Dst: f.dst,
				Bytes: f.remaining, Route: append([]int32(nil), links...)})
		}
		if s.Metrics != nil {
			s.Metrics.Reroutes.Inc()
		}
	}
	if failed > 0 {
		s.removeGone()
		for ; failed > 0; failed-- {
			s.Metrics.flowEnded(s, nil, true)
		}
	}
	if affected {
		s.ratesDirty = true
	}
}

func (s *Sim) crossesDownLink(f *flow) bool {
	for _, l := range f.links {
		if s.fail.down[l] {
			return true
		}
	}
	return false
}

// recomputeFailDist rebuilds the private distance matrix by BFS.
func (s *Sim) recomputeFailDist() {
	m := s.net.switches
	if s.fail.dist == nil {
		s.fail.dist = make([][]int16, m)
		for i := range s.fail.dist {
			s.fail.dist[i] = make([]int16, m)
		}
	}
	queue := make([]int32, 0, m)
	for src := 0; src < m; src++ {
		d := s.fail.dist[src]
		for i := range d {
			d[i] = -1
		}
		d[src] = 0
		queue = append(queue[:0], int32(src))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range s.fail.adj[v] {
				if d[u] == -1 {
					d[u] = d[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
}

func removeNeighborSw(adj *[]int32, v int32) {
	a := *adj
	for i, u := range a {
		if u == v {
			a[i] = a[len(a)-1]
			*adj = a[:len(a)-1]
			return
		}
	}
	panic("simnet: failure view inconsistent with network")
}
