// Correctness under fault: every allgather variant must deliver byte-
// identical results under every fault schedule — faults may slow the
// machine, never corrupt it — and repeated seeded runs must be
// bit-identical in virtual time.
package faults_test

import (
	"fmt"
	"testing"

	"mha/internal/collectives"
	"mha/internal/compose"
	"mha/internal/core"
	"mha/internal/faults"
	"mha/internal/mpi"
	"mha/internal/sim"
	"mha/internal/topology"
)

func pattern(r, m int) []byte {
	b := make([]byte, m)
	for i := range b {
		b[i] = compose.PatternByte(0, r, i)
	}
	return b
}

func expected(n, m int) []byte {
	out := make([]byte, 0, n*m)
	for r := 0; r < n; r++ {
		out = append(out, pattern(r, m)...)
	}
	return out
}

var variants = map[string]func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf){
	"mha":       core.MHAAllgather,
	"two-level": collectives.KandallaAllgather,
	"multi-leader": func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		collectives.MultiLeaderAllgather(p, w, send, recv, 2)
	},
	"ring": func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		collectives.RingAllgather(p, w.CommWorld(), send, recv)
	},
}

func schedules() map[string]*faults.Schedule {
	const us = sim.Time(sim.Microsecond)
	return map[string]*faults.Schedule{
		"healthy": nil,
		"rail-down-window": faults.MustNew(
			faults.Fault{Kind: faults.Down, Node: 0, Rail: 1, From: 5 * us, Until: 400 * us}),
		"rail-down-forever": faults.MustNew(
			faults.Fault{Kind: faults.Down, Node: 0, Rail: 1}),
		"degraded-half": faults.MustNew(
			faults.Fault{Kind: faults.Degrade, Node: faults.AllNodes, Rail: 1, Fraction: 0.5}),
		"latency-spike": faults.MustNew(
			faults.Fault{Kind: faults.Latency, Node: 0, Rail: faults.AllRails,
				Extra: 5 * sim.Microsecond, Until: 300 * us}),
		"flapping": faults.MustNew(
			faults.Fault{Kind: faults.Flap, Node: 1, Rail: 0,
				Period: 60 * sim.Microsecond, DownFor: 15 * sim.Microsecond}),
		"random-42": faults.Random(42, 2, 2, 2000*us),
	}
}

// runVariant executes one collective on a faulted world and checks every
// rank's bytes against the oracle, returning the completion time.
func runVariant(t *testing.T, alg func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf),
	sched *faults.Schedule, blind bool, m int) sim.Time {
	t.Helper()
	w := mpi.New(mpi.Config{
		Topo:       topology.New(2, 4, 2),
		Faults:     sched,
		FaultBlind: blind,
		Seed:       1,
	})
	n := w.Topo().Size()
	want := expected(n, m)
	err := w.Run(func(p *mpi.Proc) {
		send := mpi.Bytes(pattern(p.Rank(), m))
		recv := mpi.NewBuf(n * m)
		alg(p, w, send, recv)
		if got := string(recv.Data()); got != string(want) {
			t.Errorf("rank %d: wrong bytes under fault", p.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Makespan()
}

func TestAllgatherVariantsCorrectUnderEveryFault(t *testing.T) {
	const m = 32 << 10
	for vName, alg := range variants {
		for sName, sched := range schedules() {
			t.Run(fmt.Sprintf("%s/%s", vName, sName), func(t *testing.T) {
				end := runVariant(t, alg, sched, false, m)
				// Same schedule, same seed: bit-identical timing.
				if again := runVariant(t, alg, sched, false, m); again != end {
					t.Fatalf("nondeterministic under fault: %v vs %v", end, again)
				}
			})
		}
	}
}

func TestFaultBlindStillCorrect(t *testing.T) {
	// Health-blind selection queues on degraded rails but must never
	// corrupt data either.
	sched := schedules()["degraded-half"]
	for vName, alg := range variants {
		t.Run(vName, func(t *testing.T) {
			runVariant(t, alg, sched, true, 32<<10)
		})
	}
}

func TestFaultsOnlyEverSlowDown(t *testing.T) {
	// A faulted run can never beat the healthy run of the same algorithm.
	const m = 64 << 10
	for vName, alg := range variants {
		t.Run(vName, func(t *testing.T) {
			healthy := runVariant(t, alg, nil, false, m)
			for sName, sched := range schedules() {
				if sched == nil {
					continue
				}
				if end := runVariant(t, alg, sched, false, m); end < healthy {
					t.Errorf("%s under %s finished at %v, faster than healthy %v",
						vName, sName, end, healthy)
				}
			}
		})
	}
}
