package mha_test

// Facade tests: exercise the library exactly as an external user would,
// through the public mha package only.

import (
	"bytes"
	"testing"

	"mha"
)

func TestPublicAllgatherRoundTrip(t *testing.T) {
	topo := mha.NewCluster(2, 4, 2)
	w := mha.NewWorld(mha.Config{Topo: topo})
	n := topo.Size()
	const m = 256
	err := w.Run(func(p *mha.Proc) {
		send := mha.NewBuf(m)
		for i := range send.Data() {
			send.Data()[i] = byte(p.Rank())
		}
		recv := mha.NewBuf(n * m)
		mha.Allgather(p, w, send, recv)
		for r := 0; r < n; r++ {
			if recv.Data()[r*m] != byte(r) || recv.Data()[r*m+m-1] != byte(r) {
				t.Errorf("rank %d: block %d corrupted", p.Rank(), r)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicProfilesOrdering(t *testing.T) {
	topo := mha.NewCluster(4, 8, 2)
	prm := mha.Thor()
	m := 64 << 10
	mhaT := mha.MeasureAllgather(topo, prm, m, mha.MHAProfile())
	hpcx := mha.MeasureAllgather(topo, prm, m, mha.HPCXProfile())
	mvp := mha.MeasureAllgather(topo, prm, m, mha.MVAPICH2XProfile())
	if mhaT >= hpcx || mhaT >= mvp {
		t.Fatalf("MHA (%v) should beat HPC-X (%v) and MVAPICH2-X (%v)", mhaT, hpcx, mvp)
	}
}

func TestPublicAllreduce(t *testing.T) {
	topo := mha.NewCluster(2, 2, 2)
	w := mha.NewWorld(mha.Config{Topo: topo})
	n := topo.Size()
	err := w.Run(func(p *mha.Proc) {
		// 8*n bytes so chunks are uniform.
		buf := mha.NewBuf(8 * n)
		buf.Data()[p.Rank()*8] = 1 // distinct contribution per rank
		mha.Allreduce(p, w, buf, mha.SumF64())
		_ = buf
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicModelAndTuning(t *testing.T) {
	topo := mha.NewCluster(8, 32, 2)
	model := mha.NewModel(mha.Thor(), topo)
	if d := model.OffloadD(1 << 20); d <= 0 || d > 31 {
		t.Fatalf("OffloadD = %v", d)
	}
	if !model.RingBetterThanRD(256<<10) || model.RingBetterThanRD(64) {
		t.Fatal("RD/Ring selection wrong through the facade")
	}
	best, curve := mha.TuneOffload(mha.NewCluster(1, 4, 2), mha.Thor(), 1<<20, 4)
	if best <= 0 || len(curve) == 0 {
		t.Fatalf("tuner: d=%v curve=%d", best, len(curve))
	}
}

func TestPublicOtherCollectives(t *testing.T) {
	topo := mha.NewCluster(2, 2, 2)
	w := mha.NewWorld(mha.Config{Topo: topo})
	n := topo.Size()
	const m = 64
	err := w.Run(func(p *mha.Proc) {
		// Bcast from rank 1.
		b := mha.NewBuf(m)
		if p.Rank() == 1 {
			for i := range b.Data() {
				b.Data()[i] = 7
			}
		}
		mha.Bcast(p, w, 1, b)
		if b.Data()[0] != 7 {
			t.Errorf("rank %d: bcast failed", p.Rank())
		}
		// Alltoall of one byte blocks... use m-byte blocks.
		send := mha.NewBuf(n * m)
		for d := 0; d < n; d++ {
			send.Data()[d*m] = byte(10*p.Rank() + d)
		}
		recv := mha.NewBuf(n * m)
		mha.Alltoall(p, w, send, recv)
		for s := 0; s < n; s++ {
			if recv.Data()[s*m] != byte(10*s+p.Rank()) {
				t.Errorf("rank %d: alltoall block from %d wrong", p.Rank(), s)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicNUMA(t *testing.T) {
	topo := mha.Cluster{Nodes: 2, PPN: 4, HCAs: 2, Sockets: 2}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	w := mha.NewWorld(mha.Config{Topo: topo, Params: mha.NumaThor()})
	n := topo.Size()
	const m = 32
	err := w.Run(func(p *mha.Proc) {
		send := mha.NewBuf(m)
		send.Data()[0] = byte(p.Rank())
		recv := mha.NewBuf(n * m)
		mha.Allgather3Level(p, w, send, recv)
		for r := 0; r < n; r++ {
			if recv.Data()[r*m] != byte(r) {
				t.Errorf("rank %d: 3-level block %d wrong", p.Rank(), r)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicTracer(t *testing.T) {
	rec := mha.NewTracer()
	topo := mha.NewCluster(2, 2, 2)
	w := mha.NewWorld(mha.Config{Topo: topo, Tracer: rec, Phantom: true})
	err := w.Run(func(p *mha.Proc) {
		mha.Allgather(p, w, mha.Phantom(1<<16), mha.Phantom(1<<16*4))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	var sb bytes.Buffer
	if err := rec.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() < 10 {
		t.Fatal("chrome trace empty")
	}
}

func TestPublicFaultInjection(t *testing.T) {
	sched, err := mha.ParseFaults("down node=0 rail=1 until=40us")
	if err != nil {
		t.Fatal(err)
	}
	topo := mha.NewCluster(2, 2, 2)
	n := topo.Size()
	const m = 128
	run := func(s *mha.FaultSchedule) (mha.Time, *mha.World) {
		w := mha.NewWorld(mha.Config{Topo: topo, Faults: s})
		err := w.Run(func(p *mha.Proc) {
			send := mha.NewBuf(m)
			for i := range send.Data() {
				send.Data()[i] = byte(p.Rank())
			}
			recv := mha.NewBuf(n * m)
			mha.Allgather(p, w, send, recv)
			for r := 0; r < n; r++ {
				if recv.Data()[r*m] != byte(r) {
					t.Errorf("rank %d: block %d corrupted under faults", p.Rank(), r)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Makespan(), w
	}
	healthy, _ := run(nil)
	faulted, w := run(sched)
	if faulted < healthy {
		t.Fatalf("fault made the run faster: %v < %v", faulted, healthy)
	}
	stats := w.RailStats()
	if len(stats) != topo.Nodes*topo.HCAs {
		t.Fatalf("RailStats length = %d", len(stats))
	}
	// Programmatic construction and the random generator work through the
	// facade too.
	if _, err := mha.NewFaultSchedule(mha.Fault{Kind: mha.FaultDegrade,
		Node: mha.AllNodes, Rail: 1, Fraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	if mha.RandomFaults(3, 4, 2, 1_000_000).Len() == 0 {
		t.Fatal("random schedule is empty")
	}
}

func TestPublicExploration(t *testing.T) {
	rep, err := mha.Explore(mha.ExploreOptions{
		Algs: []string{"ring"}, Nodes: 2, PPN: 1, HCAs: 2, Msg: 4, FaultBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Counterexamples != 0 {
		t.Fatalf("exhaustive ring exploration unexpectedly dirty: %+v", rep)
	}
	if err := mha.ExploreReplay("alg=ring nodes=1 ppn=2 hcas=1 msg=4 fault=none sched=canonical"); err != nil {
		t.Fatalf("canonical schedule failed: %v", err)
	}
	if err := mha.ExploreReplay("alg=ring nodes=4 ppn=4"); err == nil {
		t.Fatal("16-rank spec accepted past the exhaustive limit")
	}
}

func TestPublicVerification(t *testing.T) {
	if err := mha.VerifyScenarioSpec("alg=mha nodes=2 ppn=2 hcas=2 msg=257 faults=none"); err != nil {
		t.Fatalf("healthy scenario failed: %v", err)
	}
	if err := mha.VerifyScenarioSpec("alg=nonsense nodes=2"); err == nil {
		t.Fatal("bad spec accepted")
	}
	if err := mha.VerifyCampaign(10, 42); err != nil {
		t.Fatalf("campaign found violations on HEAD: %v", err)
	}
	// The teardown audit is available on any World.
	topo := mha.NewCluster(2, 2, 1)
	w := mha.NewWorld(mha.Config{Topo: topo})
	err := w.Run(func(p *mha.Proc) {
		send := mha.NewBuf(16)
		recv := mha.NewBuf(16 * topo.Size())
		mha.Allgather(p, w, send, recv)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyTeardown(); err != nil {
		t.Fatalf("clean allgather flagged at teardown: %v", err)
	}
}

func TestPublicMachines(t *testing.T) {
	m, ok := mha.MachineByName("thor")
	if !ok || m.Topo.Size() != 1024 {
		t.Fatalf("thor preset: %+v ok=%v", m, ok)
	}
	if len(mha.Machines()) < 5 {
		t.Fatal("machine catalog too small")
	}
}

func TestPublicClusterScheduler(t *testing.T) {
	topo := mha.NewCluster(4, 4, 2)
	jobs := mha.ClusterRandomJobs(42, 6, topo, 300*mha.Microsecond)
	res, err := mha.RunCluster(mha.ClusterConfig{
		Topo: topo, Policy: mha.ClusterRailAware, Payload: true,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("byte-check failures: %v", res.Errors)
	}
	if len(res.Jobs) != len(jobs) || res.Makespan <= 0 {
		t.Fatalf("metrics incomplete: %d jobs, makespan %v", len(res.Jobs), res.Makespan)
	}
	for _, policy := range []string{mha.ClusterPacked, mha.ClusterSpread, mha.ClusterRailAware} {
		if _, err := mha.RunCluster(mha.ClusterConfig{Topo: topo, Policy: policy,
			SkipIsolated: true}, jobs); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
}
