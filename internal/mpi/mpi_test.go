package mpi

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/hsgraph"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// ringWorld builds a network of p hosts on p/2 switches in a ring.
func ringWorld(t testing.TB, p int) *simnet.Network {
	t.Helper()
	m := p / 2
	if m < 1 {
		m = 1
	}
	g, err := hsgraph.Ring(p, m, 8)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := simnet.NewNetwork(g, simnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestSendRecvBasic(t *testing.T) {
	nw := ringWorld(t, 4)
	var recvTime float64
	stats, err := Run(nw, 4, Config{}, func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(3, 1e6, 42)
		case 3:
			r.Recv(0, 42)
			recvTime = r.Time()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvTime <= 0 {
		t.Fatal("receive completed at time zero")
	}
	// 1 MB at 5 GB/s is 200 us plus overheads; sanity-band the result.
	if recvTime < 1e6/5e9 || recvTime > 1e-3 {
		t.Fatalf("receive time %v outside sane band", recvTime)
	}
	if stats.FlowsCompleted == 0 {
		t.Fatal("no flows recorded")
	}
}

func TestEagerVsRendezvousSendCompletion(t *testing.T) {
	nw := ringWorld(t, 4)
	var eagerDone, rendezvousDone float64
	_, err := Run(nw, 4, Config{EagerLimit: 1000}, func(r *Rank) error {
		switch r.ID() {
		case 0:
			// Eager: send completes without any receiver action... but a
			// matching receive must eventually exist for the flow.
			req := r.Isend(1, 100, 1)
			r.Wait(req)
			eagerDone = r.Time()
			req2 := r.Isend(1, 1e6, 2)
			r.Wait(req2)
			rendezvousDone = r.Time()
		case 1:
			r.Compute(1e6) // 10 us of local work before receiving
			r.Recv(0, 1)
			r.Recv(0, 2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Eager send completes in ~overhead, long before the receiver posts.
	if eagerDone > 5e-6 {
		t.Fatalf("eager send completed at %v, expected ~overhead", eagerDone)
	}
	// Rendezvous completes only after the receiver arrives at 10us.
	if rendezvousDone < 10e-6 {
		t.Fatalf("rendezvous send completed at %v, before receiver posted", rendezvousDone)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	nw := ringWorld(t, 2)
	order := []int{}
	_, err := Run(nw, 2, Config{}, func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, float64(100*(i+1)), 7)
			}
		} else {
			for i := 0; i < 5; i++ {
				r.Recv(0, 7)
				order = append(order, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("received %d messages", len(order))
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	nw := ringWorld(t, 3)
	_, err := Run(nw, 3, Config{}, func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Recv(AnySource, AnyTag)
			r.Recv(AnySource, AnyTag)
		default:
			r.Send(0, 500, r.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockOnMissingSend(t *testing.T) {
	nw := ringWorld(t, 2)
	_, err := Run(nw, 2, Config{}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(1, 9) // never sent
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock, got %v", err)
	}
}

func TestProgramErrorPropagates(t *testing.T) {
	nw := ringWorld(t, 2)
	_, err := Run(nw, 2, Config{}, func(r *Rank) error {
		if r.ID() == 1 {
			return fmt.Errorf("synthetic failure")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("expected program error, got %v", err)
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	nw := ringWorld(t, 2)
	var t0 float64
	_, err := Run(nw, 1, Config{FlopsPerHost: 1e9}, func(r *Rank) error {
		r.Compute(2e9) // 2 seconds at 1 GFlops
		t0 = r.Time()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t0-2) > 1e-9 {
		t.Fatalf("compute advanced to %v, want 2", t0)
	}
}

func collectiveWorld(t testing.TB, p int) *simnet.Network {
	t.Helper()
	sp, err := topo.FatTree(4) // 16 hosts, ample paths
	if err != nil {
		t.Fatal(err)
	}
	g, err := sp.Build(16)
	if err != nil {
		t.Fatal(err)
	}
	if p > 16 {
		t.Fatalf("collectiveWorld supports up to 16 ranks, got %d", p)
	}
	nw, err := simnet.NewNetwork(g, simnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestBarrierSynchronises(t *testing.T) {
	nw := collectiveWorld(t, 8)
	after := make([]float64, 8)
	_, err := Run(nw, 8, Config{}, func(r *Rank) error {
		// Rank i works for i microseconds, then barriers.
		r.Compute(float64(r.ID()) * 100e3) // i us at 100 GFlops
		r.Barrier()
		after[r.ID()] = r.Time()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// No rank may leave the barrier before the slowest rank arrived (7 us).
	for i, ti := range after {
		if ti < 7e-6 {
			t.Fatalf("rank %d left barrier at %v, before last arrival", i, ti)
		}
	}
}

func TestCollectivesComplete(t *testing.T) {
	// Smoke-matrix: every collective at several rank counts, including
	// non-powers of two.
	for _, p := range []int{1, 2, 3, 5, 8, 13, 16} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			nw := collectiveWorld(t, p)
			_, err := Run(nw, p, Config{}, func(r *Rank) error {
				r.Barrier()
				r.Bcast(0, 4096)
				r.Bcast(p-1, 100)
				r.Reduce(0, 4096)
				r.Allreduce(8)
				r.Allreduce(1 << 20)
				r.Allgather(1024)
				r.Alltoall(2048)
				sizes := make([]float64, p)
				for i := range sizes {
					sizes[i] = float64(100 * (i + 1))
				}
				r.Alltoallv(sizes)
				r.Gather(0, 512)
				r.Scatter(0, 512)
				r.ReduceScatterBlock(256)
				r.Barrier()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	nw := collectiveWorld(t, 16)
	times := make([]float64, 16)
	_, err := Run(nw, 16, Config{}, func(r *Rank) error {
		r.Bcast(3, 1e6)
		times[r.ID()] = r.Time()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every non-root must finish strictly after the root started; root 3's
	// completion is when its last child send finished.
	for i, ti := range times {
		if ti <= 0 {
			t.Fatalf("rank %d has zero bcast time", i)
		}
	}
}

func TestAlltoallScalesWithSize(t *testing.T) {
	nw := collectiveWorld(t, 8)
	run := func(bytes float64) float64 {
		var finish float64
		_, err := Run(nw, 8, Config{}, func(r *Rank) error {
			r.Alltoall(bytes)
			if r.ID() == 0 {
				finish = r.Time()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return finish
	}
	small, large := run(1e4), run(1e6)
	if large < 10*small {
		t.Fatalf("alltoall time did not scale: %v vs %v", small, large)
	}
}

func TestDeterministicCollectives(t *testing.T) {
	run := func() float64 {
		nw := collectiveWorld(t, 16)
		stats, err := Run(nw, 16, Config{}, func(r *Rank) error {
			r.Alltoall(32768)
			r.Allreduce(8192)
			r.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("elapsed differs: %v vs %v", a, b)
	}
}

func TestRunErrors(t *testing.T) {
	nw := ringWorld(t, 4)
	if _, err := Run(nw, 0, Config{}, func(r *Rank) error { return nil }); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := Run(nw, 5, Config{}, func(r *Rank) error { return nil }); err == nil {
		t.Fatal("size beyond hosts accepted")
	}
}

func TestSendToInvalidRankPanicsIntoError(t *testing.T) {
	nw := ringWorld(t, 2)
	_, err := Run(nw, 2, Config{}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(7, 10, 0)
		}
		return nil
	})
	if err == nil {
		t.Fatal("send to invalid rank did not error")
	}
}

// TestFailedRunLeaksNoGoroutines checks that runs ending in deadlock or in
// a rank panic leave no rank goroutines behind.
func TestFailedRunLeaksNoGoroutines(t *testing.T) {
	nw := ringWorld(t, 8)
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		_, err := Run(nw, 8, Config{}, func(r *Rank) error {
			r.Barrier()
			switch {
			case r.ID() != 5:
				r.Recv(5, 9) // rank 5 never sends
			case i%2 == 1:
				r.Send(99, 9, 0) // invalid rank: panics
			}
			return nil
		})
		if err == nil {
			t.Fatal("Run succeeded; want deadlock or panic error")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after failed runs, %d before", n, base)
	}
}

func TestPacketModeCollectives(t *testing.T) {
	nw := collectiveWorld(t, 8)
	fluid, err := Run(nw, 8, Config{}, func(r *Rank) error {
		r.Alltoall(32768)
		r.Allreduce(4096)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	packet, err := Run(nw, 8, Config{PacketMode: true}, func(r *Rank) error {
		r.Alltoall(32768)
		r.Allreduce(4096)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The two fidelity levels must agree on the order of magnitude.
	if packet.Elapsed < fluid.Elapsed/4 || packet.Elapsed > fluid.Elapsed*4 {
		t.Fatalf("models diverge: fluid %v vs packet %v", fluid.Elapsed, packet.Elapsed)
	}
}
