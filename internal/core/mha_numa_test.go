package core

import (
	"testing"
	"testing/quick"

	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

func numaCluster(nodes, ppn, hcas, sockets int) topology.Cluster {
	c := topology.Cluster{Nodes: nodes, PPN: ppn, HCAs: hcas, Sockets: sockets}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

func TestMHA3LevelMatchesOracle(t *testing.T) {
	for _, s := range []struct{ nodes, ppn, sockets int }{
		{1, 4, 2}, {2, 4, 2}, {2, 8, 2}, {3, 6, 3}, {4, 4, 2}, {2, 4, 1},
	} {
		topo := numaCluster(s.nodes, s.ppn, 2, s.sockets)
		w := mpi.New(mpi.Config{Topo: topo, Params: netmodel.NumaThor()})
		n := topo.Size()
		m := 256
		want := expected(n, m)
		err := w.Run(func(p *mpi.Proc) {
			recv := mpi.NewBuf(n * m)
			MHA3LevelAllgather(p, w, mpi.Bytes(pattern(p.Rank(), m)), recv)
			if string(recv.Data()) != want {
				t.Errorf("%+v: rank %d wrong result", s, p.Rank())
			}
		})
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
	}
}

func measureNuma(t *testing.T, topo topology.Cluster, prm *netmodel.Params, m int,
	alg func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)) sim.Duration {
	t.Helper()
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
	err := w.Run(func(p *mpi.Proc) {
		alg(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size()))
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Duration(w.Makespan())
}

func TestThreeLevelBeatsTwoLevelUnderNUMA(t *testing.T) {
	// With a cross-socket penalty, keeping level 0 socket-local must beat
	// the flat 2-level design whose phase-1 transfers cross sockets.
	topo := numaCluster(4, 16, 2, 2)
	prm := netmodel.NumaThor()
	m := 512 << 10
	three := measureNuma(t, topo, prm, m, MHA3LevelAllgather)
	two := measureNuma(t, topo, prm, m, MHAInterAllgather)
	if three >= two {
		t.Fatalf("3-level (%v) not faster than 2-level (%v) under NUMA", three, two)
	}
}

func TestThreeLevelHarmlessOnFlatNodes(t *testing.T) {
	// Without a penalty the 3-level design should cost at most a little
	// extra (the additional shared-memory hop).
	topo := numaCluster(4, 16, 2, 2)
	prm := netmodel.Thor() // flat: factor 1
	m := 256 << 10
	three := measureNuma(t, topo, prm, m, MHA3LevelAllgather)
	two := measureNuma(t, topo, prm, m, MHAInterAllgather)
	if float64(three) > 1.3*float64(two) {
		t.Fatalf("3-level overhead too big on flat nodes: %v vs %v", three, two)
	}
}

func TestCrossSocketPenaltyApplied(t *testing.T) {
	// A CMA transfer across sockets must cost more than within a socket.
	topo := numaCluster(1, 4, 1, 2) // locals 0,1 on socket 0; 2,3 on socket 1
	prm := netmodel.NumaThor()
	lat := func(dst int) sim.Time {
		w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
		var arrived sim.Time
		err := w.Run(func(p *mpi.Proc) {
			c := w.CommWorld()
			switch p.Rank() {
			case 0:
				p.Send(c, dst, 0, mpi.Phantom(1<<20))
			case dst:
				p.Recv(c, 0, 0)
				arrived = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return arrived
	}
	same := lat(1)  // same socket
	cross := lat(2) // different socket
	ratio := float64(cross) / float64(same)
	if ratio < 1.4 || ratio > 1.6 {
		t.Fatalf("cross-socket ratio = %.2f, want ~1.5", ratio)
	}
}

func TestSocketCommShape(t *testing.T) {
	topo := numaCluster(2, 4, 1, 2)
	w := mpi.New(mpi.Config{Topo: topo})
	err := w.Run(func(p *mpi.Proc) {
		sock := topo.SocketOf(p.Local())
		sc := w.SocketComm(p.Node(), sock)
		if sc.Size() != 2 {
			t.Errorf("socket comm size %d, want 2", sc.Size())
		}
		if sc.Rank(p) < 0 {
			t.Errorf("rank %d missing from its socket comm", p.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSocketCommPanicsOnFlatTopology(t *testing.T) {
	w := mpi.New(mpi.Config{Topo: topology.New(1, 2, 1)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.SocketComm(0, 0)
}

// Property: 3-level allgather is correct for random NUMA shapes.
func TestQuickThreeLevelCorrect(t *testing.T) {
	f := func(nodes, perSock uint8, mRaw uint16) bool {
		nd := int(nodes)%3 + 1
		ps := int(perSock)%3 + 1
		topo := numaCluster(nd, 2*ps, 2, 2)
		m := int(mRaw)%128 + 1
		w := mpi.New(mpi.Config{Topo: topo, Params: netmodel.NumaThor()})
		n := topo.Size()
		want := expected(n, m)
		ok := true
		err := w.Run(func(p *mpi.Proc) {
			recv := mpi.NewBuf(n * m)
			MHA3LevelAllgather(p, w, mpi.Bytes(pattern(p.Rank(), m)), recv)
			if string(recv.Data()) != want {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
