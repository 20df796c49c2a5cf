package collectives

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mha/internal/mpi"
	"mha/internal/topology"
)

func TestBinomialBcastAllRootsAllShapes(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{1, 1}, {1, 4}, {2, 3}, {4, 2}, {3, 3}, {1, 7}} {
		n := s.nodes * s.ppn
		for root := 0; root < n; root++ {
			w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
			payload := pattern(root, 128)
			err := w.Run(func(p *mpi.Proc) {
				buf := mpi.NewBuf(128)
				if p.Rank() == root {
					buf.CopyFrom(mpi.Bytes(payload))
				}
				BinomialBcast(p, w.CommWorld(), root, buf)
				if string(buf.Data()) != string(payload) {
					t.Errorf("%dx%d root=%d: rank %d wrong data", s.nodes, s.ppn, root, p.Rank())
				}
			})
			if err != nil {
				t.Fatalf("%dx%d root=%d: %v", s.nodes, s.ppn, root, err)
			}
		}
	}
}

func TestBinomialReduceAllRoots(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{1, 2}, {2, 2}, {1, 5}, {3, 2}, {2, 4}} {
		n := s.nodes * s.ppn
		for root := 0; root < n; root++ {
			w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
			elems := 8
			err := w.Run(func(p *mpi.Proc) {
				buf := f64buf(float64(p.Rank()), elems)
				BinomialReduce(p, w.CommWorld(), root, buf, SumF64())
				if p.Rank() != root {
					return
				}
				for i := 0; i < elems; i++ {
					want := float64(n*(n-1))/2 + float64(n*i)
					if got := f64at(buf, i); math.Abs(got-want) > 1e-9 {
						t.Errorf("%dx%d root=%d: elem %d = %v want %v", s.nodes, s.ppn, root, i, got, want)
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

// alltoallPattern is rank r's block destined for rank d.
func alltoallPattern(r, d, m int) []byte {
	b := make([]byte, m)
	for i := range b {
		b[i] = byte(r*37 + d*11 + i)
	}
	return b
}

func TestPairwiseAlltoall(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{1, 2}, {2, 2}, {2, 3}, {4, 2}, {1, 8}} {
		n := s.nodes * s.ppn
		w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
		m := 32
		err := w.Run(func(p *mpi.Proc) {
			send := mpi.NewBuf(n * m)
			for d := 0; d < n; d++ {
				send.Slice(d*m, m).CopyFrom(mpi.Bytes(alltoallPattern(p.Rank(), d, m)))
			}
			recv := mpi.NewBuf(n * m)
			PairwiseAlltoall(p, w.CommWorld(), send, recv)
			for src := 0; src < n; src++ {
				want := string(alltoallPattern(src, p.Rank(), m))
				if got := string(recv.Slice(src*m, m).Data()); got != want {
					t.Errorf("%dx%d rank %d: block from %d wrong", s.nodes, s.ppn, p.Rank(), src)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestGatherToLeaderExported(t *testing.T) {
	w := mpi.New(mpi.Config{Topo: topology.New(1, 4, 1)})
	m := 16
	err := w.Run(func(p *mpi.Proc) {
		var blk mpi.Buf
		if p.IsLeader() {
			blk = mpi.NewBuf(4 * m)
		}
		GatherToLeader(p, w.NodeComm(0), mpi.Bytes(pattern(p.Rank(), m)), blk)
		if p.IsLeader() && string(blk.Data()) != string(expectedAllgather(4, m)) {
			t.Error("leader gather wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: binomial bcast delivers for random shapes and roots.
func TestQuickBinomialBcast(t *testing.T) {
	f := func(nodes, ppn, rootRaw uint8, mRaw uint16) bool {
		nd := int(nodes)%4 + 1
		l := int(ppn)%4 + 1
		n := nd * l
		root := int(rootRaw) % n
		m := int(mRaw)%256 + 1
		w := mpi.New(mpi.Config{Topo: topology.New(nd, l, 1)})
		payload := pattern(root, m)
		ok := true
		err := w.Run(func(p *mpi.Proc) {
			buf := mpi.NewBuf(m)
			if p.Rank() == root {
				buf.CopyFrom(mpi.Bytes(payload))
			}
			BinomialBcast(p, w.CommWorld(), root, buf)
			if string(buf.Data()) != string(payload) {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBcastScalesLogarithmically(t *testing.T) {
	// Binomial tree: doubling ranks should add roughly one step, not
	// double the time.
	lat := func(n int) float64 {
		w := mpi.New(mpi.Config{Topo: topology.New(n, 1, 2), Phantom: true})
		var worst float64
		err := w.Run(func(p *mpi.Proc) {
			buf := mpi.Phantom(64 << 10)
			BinomialBcast(p, w.CommWorld(), 0, buf)
			if us := float64(p.Now()); us > worst {
				worst = us
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	l8, l16 := lat(8), lat(16)
	if l16 > l8*1.6 {
		t.Fatalf("bcast not logarithmic: %v -> %v", l8, l16)
	}
}

func ExampleBinomialBcast() {
	w := mpi.New(mpi.Config{Topo: topology.New(2, 2, 1)})
	err := w.Run(func(p *mpi.Proc) {
		buf := mpi.NewBuf(1)
		if p.Rank() == 2 {
			buf.Data()[0] = 'x'
		}
		BinomialBcast(p, w.CommWorld(), 2, buf)
		if p.Rank() == 0 {
			fmt.Println(string(buf.Data()))
		}
	})
	if err != nil {
		panic(err)
	}
	// Output: x
}
