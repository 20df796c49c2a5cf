package compose_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mha/internal/collectives"
	"mha/internal/compose"
	"mha/internal/core"
	"mha/internal/mpi"
	"mha/internal/sched"
	"mha/internal/topology"
	"mha/internal/trace"
	"mha/internal/verify"
)

// normalized renders a schedule with its name blanked, so two
// identically-shaped lowerings from different front ends compare equal.
func normalized(s *sched.Schedule) string {
	c := s.Clone()
	c.Name = "x"
	return c.String()
}

// TestComposeAgEqualsTwoPhaseMHA: the re-derived hierarchical
// allgather must compile to the very schedule TwoPhaseMHA builds by
// hand — same steps, transfers, transports, rails, byte windows — for
// both leader rotations, every machine shape (testTopos plus every
// block-layout shape of at most 32 ranks, so ppn = 1 and the RD → ring
// fallback on non-power-of-two node counts are in) and message size.
func TestComposeAgEqualsTwoPhaseMHA(t *testing.T) {
	topos := append(smallShapes(32, topology.Block), testTopos...)
	for _, tc := range []struct {
		alg    compose.Alg
		phase2 sched.Phase2Alg
	}{{compose.AlgRing, sched.Phase2Ring}, {compose.AlgRD, sched.Phase2RD}} {
		comp := compose.Hierarchical(compose.Allgather)
		comp.Pipeline[1].Alg = tc.alg
		for _, topo := range topos {
			for _, msg := range []int{1, 64, 4096, 256 << 10} {
				plan, err := compose.Lower(comp, compose.NewHierarchy(topo), msg, nil)
				if err != nil {
					t.Fatalf("%v %v msg=%d: %v", tc.phase2, topo, msg, err)
				}
				want := sched.TwoPhaseMHA(topo, nil, msg, sched.MHAOptions{Phase2: tc.phase2, Offload: sched.AutoOffload})
				if got, exp := normalized(plan.Sched), normalized(want); got != exp {
					t.Fatalf("%v %v msg=%d: compose-ag diverged from TwoPhaseMHA:\n--- compose\n%s\n--- hand\n%s",
						tc.phase2, topo, msg, got, exp)
				}
			}
		}
	}
}

// TestComposeAgRingEqualsRing: the flat allgather composition is the
// classic ring, transfer for transfer, in either layout.
func TestComposeAgRingEqualsRing(t *testing.T) {
	comp := compose.Flat(compose.Allgather)
	for _, topo := range append(smallShapes(32, topology.Block, topology.Cyclic), testTopos...) {
		plan, err := compose.Lower(comp, compose.NewHierarchy(topo), 512, nil)
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		want := sched.Ring(topo, 512)
		if got, exp := normalized(plan.Sched), normalized(want); got != exp {
			t.Fatalf("%v: compose-ag-ring diverged from sched.Ring:\n%s\nvs\n%s", topo, got, exp)
		}
	}
}

// TestComposeAgTraceEqualsSchedMHA: beyond schedule equality, the
// executed event timeline is identical — the derived variant is
// indistinguishable from the hand-lowered one at the simulator level.
func TestComposeAgTraceEqualsSchedMHA(t *testing.T) {
	scenarios := []verify.Scenario{
		{Cluster: topology.New(2, 4, 2), Msg: 1024, Seed: 7},
		{Cluster: topology.New(3, 2, 2), Msg: 8192, Seed: 11},
		{Cluster: topology.New(4, 4, 4), Msg: 257, Seed: 13},
		{Cluster: topology.Cluster{Nodes: 4, PPN: 3, HCAs: 2, NodeHCAs: []int{1, 2, 1, 2}}, Msg: 65536, Seed: 17},
	}
	for _, sc := range scenarios {
		sc.Alg = "compose-ag"
		rec1, rec2 := trace.New(), trace.New()
		r1 := verify.RunOnce(sc, rec1, nil)
		if len(r1.Violations) > 0 {
			t.Fatalf("%s: %v", sc.Spec(), r1.Violations)
		}
		sc.Alg = "sched-mha"
		r2 := verify.RunOnce(sc, rec2, nil)
		if len(r2.Violations) > 0 {
			t.Fatalf("%s: %v", sc.Spec(), r2.Violations)
		}
		if h1, h2 := rec1.Hash(), rec2.Hash(); h1 != h2 {
			t.Errorf("%s: trace hash %#x (compose-ag) vs %#x (sched-mha)", sc.Spec(), h1, h2)
		}
		if r1.Makespan != r2.Makespan {
			t.Errorf("%s: makespan %v vs %v", sc.Spec(), r1.Makespan, r2.Makespan)
		}
	}
}

// runCollect executes body on every rank of a fresh world and returns
// each rank's result buffer.
func runCollect(t *testing.T, topo topology.Cluster, body func(p *mpi.Proc, w *mpi.World) mpi.Buf) []mpi.Buf {
	t.Helper()
	w := mpi.New(mpi.Config{Topo: topo})
	out := make([]mpi.Buf, topo.Size())
	var mu sync.Mutex
	if err := w.Run(func(p *mpi.Proc) {
		b := body(p, w)
		mu.Lock()
		out[p.Rank()] = b
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func fill(b mpi.Buf, r int) {
	for i := range b.Data() {
		b.Data()[i] = compose.PatternByte(0, r, i)
	}
}

func diffBufs(t *testing.T, name string, got, want []mpi.Buf) {
	t.Helper()
	for r := range got {
		if !got[r].Equal(want[r]) {
			t.Fatalf("%s: rank %d bytes diverge from hand-written counterpart", name, r)
		}
	}
}

// TestComposeArEqualsRingAllreduce: the derived allreduce pipeline
// (reduce-scatter ring, fence, allgather ring) ends with the same bytes
// as the hand-written Patarasuk-Yuan ring allreduce driven by the same
// ByteSum arithmetic.
func TestComposeArEqualsRingAllreduce(t *testing.T) {
	topo := topology.Cluster{Nodes: 2, PPN: 4, HCAs: 2, Layout: topology.Block}
	n := topo.Size()
	m := 64 // per-slot payload; hand-written chunking needs 8 | n*m
	runner := compose.Runner(compose.Flat(compose.Allreduce))
	got := runCollect(t, topo, func(p *mpi.Proc, w *mpi.World) mpi.Buf {
		send := mpi.NewBuf(n * m)
		fill(send, p.Rank())
		recv := mpi.NewBuf(n * m)
		runner(p, w, send, recv)
		return recv
	})
	want := runCollect(t, topo, func(p *mpi.Proc, w *mpi.World) mpi.Buf {
		buf := mpi.NewBuf(n * m)
		fill(buf, p.Rank())
		collectives.RingAllreduce(p, w.CommWorld(), buf, compose.ByteSum{})
		return buf
	})
	diffBufs(t, "compose-ar", got, want)
}

// TestComposeBcastEqualsMHABcast: the derived hierarchical bcast moves
// the same bytes as the hand-written MHA broadcast from root 0.
func TestComposeBcastEqualsMHABcast(t *testing.T) {
	topo := topology.Cluster{Nodes: 3, PPN: 4, HCAs: 2, Layout: topology.Block}
	m := 2048
	runner := compose.Runner(compose.Hierarchical(compose.Bcast))
	got := runCollect(t, topo, func(p *mpi.Proc, w *mpi.World) mpi.Buf {
		send := mpi.NewBuf(m)
		fill(send, p.Rank())
		recv := mpi.NewBuf(m)
		runner(p, w, send, recv)
		return recv
	})
	want := runCollect(t, topo, func(p *mpi.Proc, w *mpi.World) mpi.Buf {
		buf := mpi.NewBuf(m)
		if p.Rank() == 0 {
			fill(buf, 0)
		}
		core.MHABcast(p, w, 0, buf)
		return buf
	})
	diffBufs(t, "compose-bcast", got, want)
}

// TestDerivedEqualHandWritten: the derived alltoall agrees
// byte-for-byte with the hand-written hierarchical implementation in
// internal/core (world-rank block order).
func TestDerivedEqualHandWritten(t *testing.T) {
	topo := topology.Cluster{Nodes: 2, PPN: 4, HCAs: 2, Layout: topology.Block}
	n := topo.Size()
	m := 512
	cases := []struct {
		name string
		comp compose.Composition
		hand func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)
	}{
		{"alltoall", compose.Hierarchical(compose.Alltoall), core.MHAAlltoall},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sendLen, recvLen := compose.Geometry(tc.comp.Coll, n, m)
			runner := compose.Runner(tc.comp)
			mk := func(run func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)) []mpi.Buf {
				return runCollect(t, topo, func(p *mpi.Proc, w *mpi.World) mpi.Buf {
					send := mpi.NewBuf(sendLen)
					fill(send, p.Rank())
					recv := mpi.NewBuf(recvLen)
					run(p, w, send, recv)
					return recv
				})
			}
			diffBufs(t, fmt.Sprintf("compose-%s", tc.name), mk(runner), mk(tc.hand))
		})
	}
}

// TestFlatEqualsHierarchicalBytes: for every collective with both a
// flat and a hierarchical standard composition, the two lowerings are
// different schedules but must end with identical bytes.
func TestFlatEqualsHierarchicalBytes(t *testing.T) {
	topo := topology.Cluster{Nodes: 2, PPN: 3, HCAs: 2, Layout: topology.Block}
	n := topo.Size()
	m := 96
	for _, coll := range []compose.Collective{
		compose.Allgather, compose.ReduceScatter, compose.Alltoall,
		compose.Gather, compose.Scatter, compose.Bcast,
	} {
		sendLen, recvLen := compose.Geometry(coll, n, m)
		mk := func(comp compose.Composition) []mpi.Buf {
			runner := compose.Runner(comp)
			return runCollect(t, topo, func(p *mpi.Proc, w *mpi.World) mpi.Buf {
				send := mpi.NewBuf(sendLen)
				fill(send, p.Rank())
				recv := mpi.NewBuf(recvLen)
				runner(p, w, send, recv)
				return recv
			})
		}
		diffBufs(t, coll.String(), mk(compose.Hierarchical(coll)), mk(compose.Flat(coll)))
	}
}

// TestExecutePlanLeavesPlanUntouched: compose.Runner hands every rank of
// a world the same lowered *Plan, so executing it — schedule, goal and
// the ByteSum fold included — must only read it. Lower is deterministic,
// so a second lowering is the untouched reference.
func TestExecutePlanLeavesPlanUntouched(t *testing.T) {
	topo := topology.Cluster{Nodes: 2, PPN: 4, HCAs: 2, Layout: topology.Block}
	n, m := topo.Size(), 512
	for _, v := range compose.Variants() {
		plan, err := compose.Lower(v.Comp, compose.NewHierarchy(topo), m, nil)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		ref, _ := compose.Lower(v.Comp, compose.NewHierarchy(topo), m, nil)
		ix := sched.NewIndex(plan.Sched)
		sendLen, recvLen := compose.Geometry(v.Coll, n, m)
		runCollect(t, topo, func(p *mpi.Proc, w *mpi.World) mpi.Buf {
			send := mpi.NewBuf(sendLen)
			fill(send, p.Rank())
			recv := mpi.NewBuf(recvLen)
			compose.ExecutePlan(p, w, plan, ix, send, recv)
			return recv
		})
		if !reflect.DeepEqual(plan, ref) {
			t.Errorf("%s: executing the shared plan modified it", v.Name)
		}
	}
}
