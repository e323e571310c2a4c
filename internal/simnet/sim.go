package simnet

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Sim is a deterministic discrete-event simulator over a Network with
// cooperatively scheduled processes. Exactly one process goroutine runs at
// a time; events are processed in (time, sequence) order, so a given
// program always produces the same timings.
type Sim struct {
	net *Network
	now float64

	events  eventHeap
	eventSq int64

	// flows holds the active flows in increasing id order: ids only grow,
	// so a new flow is appended, and finished or failed flows leave by a
	// stable compaction. Every pass over the flows (rate allocation,
	// draining, completion, rerouting) therefore runs in id order, which
	// makes the float sums bit-reproducible.
	flows      []*flow
	finishBuf  []*flow // nextFlowCompletion's reused result
	nextFlowID int64
	ratesDirty bool
	// max-min scratch (lazily sized to the link count)
	linkFree   []float64
	linkShare  []float64 // linkFree/linkCount, +Inf once a link has no unset flow
	linkCount  []int32
	touchedBuf []int32
	liveBuf    []int32
	unsetBuf   []*flow

	procs   []*Proc
	readyQ  []*Proc
	yielded chan struct{}
	// aborting is set when Run fails; the parked processes are then
	// resumed once more so their goroutines exit instead of leaking.
	aborting bool
	exited   sync.WaitGroup // process goroutines still running

	// Stats
	FlowsCompleted int64
	// FlowsFailed counts flows terminated because a link failure made
	// their destination unreachable (see fail.go). Their completion
	// signals still fire so waiting processes do not deadlock.
	FlowsFailed int64
	BytesMoved  float64

	fail *failState // private link-failure view; nil while nothing failed

	// TrackLinkStats enables per-link byte accounting (off by default:
	// it adds O(path length) work to every drain step). Set before Run.
	TrackLinkStats bool
	linkBytes      []float64

	// Tracer, when non-nil, records every flow's lifecycle (see trace.go).
	// Set before Run.
	Tracer *FlowTracer
	// Metrics, when non-nil, receives live counter/gauge/histogram updates
	// as the simulation runs (see SimMetrics). Set before Run.
	Metrics *SimMetrics
	// Time-bucketed link series (see EnableLinkSeries).
	seriesBucket float64
	series       [][]float64

	// linkFreeAt is the packet-mode per-link FIFO horizon (see packet.go).
	linkFreeAt []float64
}

// Signal is a one-shot condition processes can wait on.
type Signal struct {
	fired   bool
	waiters []*Proc
	chained []*Signal
}

// Fired reports whether the signal has fired.
func (sg *Signal) Fired() bool { return sg.fired }

type flow struct {
	id        int64
	src, dst  int
	links     []int32
	remaining float64
	rate      float64
	done      *Signal
	started   float64 // sim time at which the flow began carrying bytes
	eta       float64 // completion time at the current rate (nextFlowCompletion)
	gone      bool    // finished or failed; dropped by the next removeGone
}

type event struct {
	at  float64
	seq int64
	fn  func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events in (at, seq) order. Sequence
// numbers are unique, so the pop order is total and independent of the
// heap's internal layout.
type eventHeap []event

func (h eventHeap) peek() event { return h[0] }

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if !q[i].before(&q[up]) {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the closure reference
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// Proc is a simulated process pinned to a host. Its body runs in its own
// goroutine but only while the scheduler has handed it control; all
// blocking goes through Wait/Sleep.
type Proc struct {
	ID     int
	Host   int
	sim    *Sim
	resume chan struct{}
	done   bool
	failed error
}

// NewSim creates a simulator for the network.
func NewSim(net *Network) *Sim {
	return &Sim{
		net:     net,
		yielded: make(chan struct{}),
	}
}

// Now returns the current simulated time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Network returns the underlying network.
func (s *Sim) Network() *Network { return s.net }

// Spawn registers a process bound to a host. Must be called before Run.
func (s *Sim) Spawn(host int, body func(p *Proc)) *Proc {
	if host < 0 || host >= s.net.Hosts() {
		panic(fmt.Sprintf("simnet: spawn on host %d of %d", host, s.net.Hosts()))
	}
	p := &Proc{ID: len(s.procs), Host: host, sim: s, resume: make(chan struct{})}
	s.procs = append(s.procs, p)
	s.exited.Add(1)
	go func() {
		defer s.exited.Done()
		<-p.resume
		if s.aborting {
			return
		}
		defer func() {
			if s.aborting {
				return // released by a failed Run: nobody is listening
			}
			if r := recover(); r != nil {
				p.failed = fmt.Errorf("simnet: process %d panicked: %v", p.ID, r)
			}
			p.done = true
			s.yielded <- struct{}{}
		}()
		body(p)
	}()
	s.readyQ = append(s.readyQ, p)
	return p
}

// Run executes until every process finishes. It returns an error on
// deadlock (processes blocked with no pending events) or process panic,
// after ending the goroutines of the unfinished processes. Either way,
// no process goroutine is still running when Run returns.
func (s *Sim) Run() error {
	err := s.run()
	if err != nil {
		s.release()
	}
	s.exited.Wait()
	return err
}

// release ends the goroutine of every unfinished process. After a failed
// run each of them is parked on its resume channel (before its body or in
// yield); resumed with aborting set, it exits via runtime.Goexit.
func (s *Sim) release() {
	s.aborting = true
	for _, p := range s.procs {
		if !p.done {
			p.resume <- struct{}{}
		}
	}
}

func (s *Sim) run() error {
	for {
		if len(s.readyQ) > 0 {
			p := s.readyQ[0]
			s.readyQ = s.readyQ[1:]
			p.resume <- struct{}{}
			<-s.yielded
			if p.failed != nil {
				return p.failed
			}
			continue
		}
		allDone := true
		for _, p := range s.procs {
			if !p.done {
				allDone = false
				break
			}
		}
		if allDone {
			return nil
		}
		if err := s.advance(); err != nil {
			return err
		}
	}
}

// advance moves time to the next event (timer or flow completion) and
// handles it.
func (s *Sim) advance() error {
	if s.ratesDirty {
		s.recomputeRates()
	}
	tFlow, finished := s.nextFlowCompletion()
	tTimer := math.Inf(1)
	if len(s.events) > 0 {
		tTimer = s.events.peek().at
	}
	t := math.Min(tFlow, tTimer)
	if math.IsInf(t, 1) {
		blocked := 0
		for _, p := range s.procs {
			if !p.done {
				blocked++
			}
		}
		return fmt.Errorf("simnet: deadlock at t=%.9f: %d processes blocked with no pending events", s.now, blocked)
	}
	s.drainFlows(t - s.now)
	s.now = t
	if tFlow <= tTimer {
		for _, f := range finished {
			f.gone = true
		}
		s.removeGone()
		for _, f := range finished {
			s.FlowsCompleted++
			s.ratesDirty = true
			s.Tracer.record(FlowEvent{Kind: FlowFinish, Time: s.now, ID: f.id, Src: f.src, Dst: f.dst})
			s.Metrics.flowEnded(s, f, false)
			s.fire(f.done)
		}
		return nil
	}
	// Drain every timer event scheduled for this instant in one pass so the
	// (expensive) rate recomputation runs once per timestamp, not once per
	// event — synchronized collectives produce large same-time batches.
	s.events.pop().fn()
	for len(s.events) > 0 && s.events.peek().at == t {
		s.events.pop().fn()
	}
	return nil
}

// removeGone drops the flows marked gone, keeping the rest in id order.
func (s *Sim) removeGone() {
	kept := s.flows[:0]
	for _, f := range s.flows {
		if !f.gone {
			kept = append(kept, f)
		}
	}
	clear(s.flows[len(kept):])
	s.flows = kept
}

// drainFlows transfers dt seconds of data on every active flow.
func (s *Sim) drainFlows(dt float64) {
	if dt <= 0 {
		return
	}
	for _, f := range s.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		s.BytesMoved += moved
		if s.TrackLinkStats {
			if s.linkBytes == nil {
				s.linkBytes = make([]float64, s.net.NumLinks())
			}
			for _, l := range f.links {
				s.linkBytes[l] += moved
			}
		}
		if s.seriesBucket > 0 && moved > 0 {
			s.addSeries(f.links, moved, dt)
		}
	}
}

// LinkLoad reports the bytes carried by one directed link.
type LinkLoad struct {
	From, To int // node ids: hosts [0,n), switch s at n+s
	Bytes    float64
}

// LinkLoads returns per-directed-link transferred bytes (requires
// TrackLinkStats). Links are returned in link-id order.
func (s *Sim) LinkLoads() []LinkLoad {
	out := make([]LinkLoad, s.net.NumLinks())
	for l := range out {
		out[l] = LinkLoad{From: int(s.net.linkFrom[l]), To: int(s.net.linkTo[l])}
		if s.linkBytes != nil {
			out[l].Bytes = s.linkBytes[l]
		}
	}
	return out
}

// LinkLoadSummary returns the maximum and mean bytes over all directed
// links that carried any traffic.
func (s *Sim) LinkLoadSummary() (maxBytes, meanBytes float64) {
	if s.linkBytes == nil {
		return 0, 0
	}
	var sum float64
	active := 0
	for _, b := range s.linkBytes {
		if b > maxBytes {
			maxBytes = b
		}
		if b > 0 {
			sum += b
			active++
		}
	}
	if active > 0 {
		meanBytes = sum / float64(active)
	}
	return maxBytes, meanBytes
}

// nextFlowCompletion returns the earliest completion time among active
// flows and, in id order, all flows completing then (within tolerance).
// The returned slice is reused by the next call.
func (s *Sim) nextFlowCompletion() (float64, []*flow) {
	t := math.Inf(1)
	for _, f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		f.eta = s.now + f.remaining/f.rate
		if f.eta < t {
			t = f.eta
		}
	}
	if math.IsInf(t, 1) {
		return t, nil
	}
	const eps = 1e-15
	out := s.finishBuf[:0]
	for _, f := range s.flows {
		if f.rate > 0 && f.eta <= t+eps {
			out = append(out, f)
		}
	}
	s.finishBuf = out
	return t, out
}

// recomputeRates runs progressive-filling max-min fair allocation over all
// active flows using flat per-link arrays (this is the simulator's hot
// path). Each round freezes, in id order, every unset flow crossing a link
// whose fair share is within a relative 1e-12 of the round's minimum. A
// link's share is cached and recomputed only when a freeze changes it, and
// the rounds walk only the still-unset flows and still-loaded links; the
// arithmetic, and its order, is that of the plain formulation.
func (s *Sim) recomputeRates() {
	s.ratesDirty = false
	if len(s.flows) == 0 {
		return
	}
	cap_ := s.net.cfg.BandwidthBps
	if s.linkFree == nil {
		nl := s.net.NumLinks()
		s.linkFree = make([]float64, nl)
		s.linkShare = make([]float64, nl)
		s.linkCount = make([]int32, nl)
	}
	free, shareOf, count := s.linkFree, s.linkShare, s.linkCount
	touched := s.touchedBuf[:0]
	for _, f := range s.flows {
		f.rate = -1
		for _, l := range f.links {
			if count[l] == 0 {
				free[l] = cap_
				touched = append(touched, l)
			}
			count[l]++
		}
	}
	for _, l := range touched {
		shareOf[l] = free[l] / float64(count[l])
	}
	live := append(s.liveBuf[:0], touched...) // links still carrying unset flows
	unset := append(s.unsetBuf[:0], s.flows...)
	for len(unset) > 0 {
		share := math.Inf(1)
		n := 0
		for _, l := range live {
			if count[l] == 0 {
				continue
			}
			live[n] = l
			n++
			if shareOf[l] < share {
				share = shareOf[l]
			}
		}
		live = live[:n]
		if math.IsInf(share, 1) {
			for _, f := range unset {
				f.rate = cap_
			}
			break
		}
		limit := share * (1 + 1e-12)
		next := unset[:0]
		for _, f := range unset {
			bottled := false
			for _, l := range f.links {
				if shareOf[l] <= limit {
					bottled = true
					break
				}
			}
			if !bottled {
				next = append(next, f)
				continue
			}
			f.rate = share
			for _, l := range f.links {
				free[l] -= share
				if free[l] < 0 {
					free[l] = 0
				}
				count[l]--
				if count[l] > 0 {
					shareOf[l] = free[l] / float64(count[l])
				} else {
					shareOf[l] = math.Inf(1)
				}
			}
		}
		if len(next) == len(unset) {
			// Numerical stalemate: assign the remaining flows the current
			// share to guarantee termination.
			for _, f := range unset {
				f.rate = share
			}
			next = next[:0]
		}
		unset = next
	}
	// Reset counters for the next invocation (free slots are lazily
	// reinitialised via linkCount == 0).
	for _, l := range touched {
		count[l] = 0
	}
	s.touchedBuf = touched[:0]
	s.liveBuf = live[:0]
	s.unsetBuf = unset[:0]
}

// after schedules fn at now+delay.
func (s *Sim) after(delay float64, fn func()) {
	s.eventSq++
	s.events.push(event{at: s.now + delay, seq: s.eventSq, fn: fn})
}

// fire marks a signal fired, readies its waiters, and fires any chained
// signals.
func (s *Sim) fire(sg *Signal) {
	if sg == nil || sg.fired {
		return
	}
	sg.fired = true
	for _, p := range sg.waiters {
		s.readyQ = append(s.readyQ, p)
	}
	sg.waiters = nil
	for _, c := range sg.chained {
		s.fire(c)
	}
	sg.chained = nil
}

// Chain arranges for `to` to fire when `from` fires (immediately if it
// already has).
func (s *Sim) Chain(from, to *Signal) {
	if from.fired {
		s.fire(to)
		return
	}
	from.chained = append(from.chained, to)
}

// NewSignal returns an unfired signal.
func (s *Sim) NewSignal() *Signal { return &Signal{} }

// FireAt fires the signal at the given delay from now.
func (s *Sim) FireAt(sg *Signal, delay float64) {
	s.after(delay, func() { s.fire(sg) })
}

// StartFlow begins a transfer of the given number of bytes from host src
// to host dst and returns a signal that fires on completion. A transfer
// first pays the per-message overhead plus per-hop latency, then shares
// bandwidth max-min fairly with all concurrent flows on its path.
// src == dst transfers fire after the message overhead alone.
func (s *Sim) StartFlow(src, dst int, bytes float64) (*Signal, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("simnet: negative transfer size %v", bytes)
	}
	sg := s.NewSignal()
	cfg := s.net.cfg
	if src == dst {
		s.FireAt(sg, cfg.MessageOverhead)
		return sg, nil
	}
	links, err := s.route(src, dst)
	if err != nil {
		return nil, err
	}
	delay := cfg.MessageOverhead + float64(len(links))*cfg.LatencyPerHop
	s.after(delay, func() {
		if bytes == 0 {
			s.fire(sg)
			return
		}
		// A link may have failed during the latency window; re-resolve
		// before the flow starts carrying bytes.
		if s.fail != nil {
			for _, l := range links {
				if !s.fail.down[l] {
					continue
				}
				fresh, err := s.route(src, dst)
				if err != nil {
					s.FlowsFailed++
					s.Tracer.record(FlowEvent{Kind: FlowFail, Time: s.now, Src: src, Dst: dst, Bytes: bytes})
					s.Metrics.flowEnded(s, nil, true)
					s.fire(sg)
					return
				}
				links = fresh
				break
			}
		}
		s.nextFlowID++
		f := &flow{id: s.nextFlowID, src: src, dst: dst, links: links, remaining: bytes, done: sg, started: s.now}
		s.flows = append(s.flows, f)
		s.ratesDirty = true
		if s.Tracer != nil {
			s.Tracer.record(FlowEvent{Kind: FlowStart, Time: s.now, ID: f.id, Src: src, Dst: dst,
				Bytes: bytes, Route: append([]int32(nil), links...)})
		}
		s.Metrics.flowStarted(s)
	})
	return sg, nil
}

// --- Proc API ---

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.sim.now }

// Sim returns the simulator owning this process.
func (p *Proc) Sim() *Sim { return p.sim }

// yield parks the process until the scheduler resumes it. A process
// resumed by release (the run failed) exits instead of returning.
func (p *Proc) yield() {
	if !p.sim.aborting {
		p.sim.yielded <- struct{}{}
		<-p.resume
	}
	if p.sim.aborting {
		runtime.Goexit()
	}
}

// Wait blocks until the signal fires (returns immediately if it already
// has).
func (p *Proc) Wait(sg *Signal) {
	if sg.fired {
		return
	}
	sg.waiters = append(sg.waiters, p)
	p.yield()
}

// WaitAll blocks until all the given signals have fired.
func (p *Proc) WaitAll(sgs ...*Signal) {
	for _, sg := range sgs {
		p.Wait(sg)
	}
}

// Sleep advances the process's virtual time by d seconds (modelling
// computation).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic("simnet: negative sleep")
	}
	sg := p.sim.NewSignal()
	p.sim.FireAt(sg, d)
	p.Wait(sg)
}
