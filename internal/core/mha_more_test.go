package core

import (
	"math"
	"testing"
	"testing/quick"

	"mha/internal/collectives"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

func TestMHABcastAllRoots(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{1, 4}, {2, 2}, {3, 3}, {4, 2}, {2, 1}} {
		n := s.nodes * s.ppn
		for root := 0; root < n; root++ {
			w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
			payload := pattern(root, 512)
			err := w.Run(func(p *mpi.Proc) {
				buf := mpi.NewBuf(512)
				if p.Rank() == root {
					buf.CopyFrom(mpi.Bytes(payload))
				}
				MHABcast(p, w, root, buf)
				if string(buf.Data()) != string(payload) {
					t.Errorf("%dx%d root=%d: rank %d wrong", s.nodes, s.ppn, root, p.Rank())
				}
			})
			if err != nil {
				t.Fatalf("%dx%d root=%d: %v", s.nodes, s.ppn, root, err)
			}
		}
	}
}

func TestMHABcastChunkedPipeline(t *testing.T) {
	// Buffers larger than the chunk size exercise the shm pipeline.
	w := mpi.New(mpi.Config{Topo: topology.New(2, 4, 2)})
	n := 3*bcastChunk + 100
	payload := pattern(1, n)
	err := w.Run(func(p *mpi.Proc) {
		buf := mpi.NewBuf(n)
		if p.Rank() == 0 {
			buf.CopyFrom(mpi.Bytes(payload))
		}
		MHABcast(p, w, 0, buf)
		if string(buf.Data()) != string(payload) {
			t.Errorf("rank %d corrupted chunked bcast", p.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMHAReduceAllRoots(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{1, 3}, {2, 2}, {3, 2}, {2, 4}} {
		n := s.nodes * s.ppn
		for root := 0; root < n; root++ {
			w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
			elems := 8
			err := w.Run(func(p *mpi.Proc) {
				buf := f64buf(float64(p.Rank()), elems)
				MHAReduce(p, w, root, buf, collectives.SumF64())
				if p.Rank() != root {
					return
				}
				for i := 0; i < elems; i++ {
					want := float64(n*(n-1))/2 + float64(n*i)
					if got := f64at(buf, i); math.Abs(got-want) > 1e-9 {
						t.Errorf("%dx%d root=%d elem %d = %v want %v", s.nodes, s.ppn, root, i, got, want)
						return
					}
				}
			})
			if err != nil {
				t.Fatalf("%dx%d root=%d: %v", s.nodes, s.ppn, root, err)
			}
		}
	}
}

func a2aPattern(r, d, m int) []byte {
	b := make([]byte, m)
	for i := range b {
		b[i] = byte(r*37 + d*11 + i)
	}
	return b
}

func TestMHAAlltoallMatchesOracle(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{1, 4}, {2, 2}, {2, 3}, {3, 2}, {4, 2}} {
		n := s.nodes * s.ppn
		w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
		m := 32
		err := w.Run(func(p *mpi.Proc) {
			send := mpi.NewBuf(n * m)
			for d := 0; d < n; d++ {
				send.Slice(d*m, m).CopyFrom(mpi.Bytes(a2aPattern(p.Rank(), d, m)))
			}
			recv := mpi.NewBuf(n * m)
			MHAAlltoall(p, w, send, recv)
			for src := 0; src < n; src++ {
				want := string(a2aPattern(src, p.Rank(), m))
				if got := string(recv.Slice(src*m, m).Data()); got != want {
					t.Errorf("%dx%d rank %d: block from %d wrong", s.nodes, s.ppn, p.Rank(), src)
					return
				}
			}
		})
		if err != nil {
			t.Fatalf("%dx%d: %v", s.nodes, s.ppn, err)
		}
	}
}

func TestMHAAlltoallBeatsPairwiseAtScale(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(4, 8, 2)
	m := 16 << 10
	measure := func(alg func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)) sim.Duration {
		w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
		err := w.Run(func(p *mpi.Proc) {
			alg(p, w, mpi.Phantom(m*p.Size()), mpi.Phantom(m*p.Size()))
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Duration(w.Makespan())
	}
	mha := measure(MHAAlltoall)
	flat := measure(func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		collectives.PairwiseAlltoall(p, w.CommWorld(), send, recv)
	})
	if mha >= flat {
		t.Fatalf("MHA alltoall (%v) not faster than pairwise (%v)", mha, flat)
	}
}

func TestMHABcastBeatsFlatBinomialAtScale(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(8, 16, 2)
	n := 4 << 20
	measure := func(alg func(p *mpi.Proc, w *mpi.World, buf mpi.Buf)) sim.Duration {
		w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
		err := w.Run(func(p *mpi.Proc) {
			alg(p, w, mpi.Phantom(n))
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Duration(w.Makespan())
	}
	mha := measure(func(p *mpi.Proc, w *mpi.World, buf mpi.Buf) { MHABcast(p, w, 0, buf) })
	flat := measure(func(p *mpi.Proc, w *mpi.World, buf mpi.Buf) {
		collectives.BinomialBcast(p, w.CommWorld(), 0, buf)
	})
	if mha >= flat {
		t.Fatalf("MHA bcast (%v) not faster than flat binomial (%v)", mha, flat)
	}
}

// Property: MHA alltoall is correct on random small shapes.
func TestQuickMHAAlltoall(t *testing.T) {
	f := func(nodes, ppn uint8, mRaw uint16) bool {
		nd := int(nodes)%3 + 1
		l := int(ppn)%3 + 1
		n := nd * l
		m := (int(mRaw)%64 + 1) * 4
		w := mpi.New(mpi.Config{Topo: topology.New(nd, l, 2)})
		ok := true
		err := w.Run(func(p *mpi.Proc) {
			send := mpi.NewBuf(n * m)
			for d := 0; d < n; d++ {
				send.Slice(d*m, m).CopyFrom(mpi.Bytes(a2aPattern(p.Rank(), d, m)))
			}
			recv := mpi.NewBuf(n * m)
			MHAAlltoall(p, w, send, recv)
			for src := 0; src < n; src++ {
				if string(recv.Slice(src*m, m).Data()) != string(a2aPattern(src, p.Rank(), m)) {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
