package mpi

import (
	"strings"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

// expectPanic runs fn inside a rank and asserts it panics with a message
// containing want.
func expectPanic(t *testing.T, want string, fn func(p *Proc, w *World)) {
	t.Helper()
	w := New(Config{Topo: topology.New(2, 2, 2)})
	err := w.Run(func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("want panic containing %q, got none", want)
				return
			}
			if msg, ok := r.(string); ok && !strings.Contains(msg, want) {
				t.Errorf("panic %q does not contain %q", msg, want)
			}
		}()
		fn(p, w)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMisuseWaitOnForeignRequest(t *testing.T) {
	w := New(Config{Topo: topology.New(1, 2, 1)})
	reqs := make(chan *Request, 1)
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		if p.Rank() == 0 {
			reqs <- p.Irecv(c, 1, 0)
			p.Recv(c, 1, 1) // block so rank 1 can steal the request
		} else {
			req := <-reqs
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Wait on another rank's request should panic")
					}
				}()
				p.Wait(req)
			}()
			p.Send(c, 0, 1, Phantom(1))
			p.Send(c, 0, 0, Phantom(1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMisuseBadRail(t *testing.T) {
	expectPanic(t, "rail", func(p *Proc, w *World) {
		p.Isend(w.CommWorld(), 1, 0, Phantom(8), ViaRail(5))
	})
}

func TestMisuseByRefAcrossNodes(t *testing.T) {
	expectPanic(t, "ByRef", func(p *Proc, w *World) {
		p.Isend(w.CommWorld(), 2, 0, Phantom(8), ByRef()) // rank 2 is on node 1
	})
}

func TestMisuseCommRankOutOfRange(t *testing.T) {
	expectPanic(t, "out of range", func(p *Proc, w *World) {
		p.Isend(w.CommWorld(), 99, 0, Phantom(8))
	})
}

func TestMisuseTagBounds(t *testing.T) {
	expectPanic(t, "phase", func(p *Proc, w *World) {
		Tag(0, 32, 0)
	})
	expectPanic(t, "step", func(p *Proc, w *World) {
		Tag(0, 0, 1<<16)
	})
}

func TestMisuseBarrierFromNonMember(t *testing.T) {
	w := New(Config{Topo: topology.New(1, 3, 1)})
	sub := w.NewComm([]int{0, 1})
	err := w.Run(func(p *Proc) {
		if p.Rank() == 2 {
			defer func() {
				if recover() == nil {
					t.Error("barrier from non-member should panic")
				}
			}()
			sub.Barrier(p)
			return
		}
		sub.Barrier(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMisuseBufferSlicePanics(t *testing.T) {
	b := NewBuf(8)
	for _, fn := range []func(){
		func() { b.Slice(4, 8) },
		func() { b.Slice(-1, 2) },
		func() { b.CopyFrom(NewBuf(4)) },
		func() { NewBuf(-1) },
		func() { Phantom(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMisuseDuplicateCommRank(t *testing.T) {
	w := New(Config{Topo: topology.New(1, 2, 1)})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate rank in comm should panic")
		}
	}()
	w.NewComm([]int{0, 0})
}

func TestMisuseShmReopenDifferentSize(t *testing.T) {
	w := New(Config{Topo: topology.New(1, 2, 1)})
	err := w.Run(func(p *Proc) {
		p.ShmOpen("r", 64)
		w.CommWorld().Barrier(p)
		if p.Rank() == 1 {
			defer func() {
				if recover() == nil {
					t.Error("reopen with different size should panic")
				}
			}()
			p.ShmOpen("r", 128)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMisuseNegativeShmSize(t *testing.T) {
	expectPanic(t, "negative", func(p *Proc, w *World) {
		p.ShmOpen("neg", -1)
	})
}

func TestMisuseInvalidTopologyRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid topology should panic in New")
		}
	}()
	New(Config{Topo: topology.Cluster{Nodes: 0, PPN: 1, HCAs: 1}})
}

func TestMisuseInvalidParamsRejected(t *testing.T) {
	bad := netmodel.Thor()
	bad.BWHCA = -5
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params should panic in New")
		}
	}()
	New(Config{Topo: topology.New(1, 1, 1), Params: bad})
}

func TestBufStringForms(t *testing.T) {
	if s := Phantom(8).String(); !strings.Contains(s, "phantom") {
		t.Fatalf("phantom string %q", s)
	}
	if s := NewBuf(8).String(); strings.Contains(s, "phantom") {
		t.Fatalf("real buffer string %q", s)
	}
}

func TestCommAccessors(t *testing.T) {
	w := New(Config{Topo: topology.New(2, 2, 1)})
	c := w.CommWorld()
	if c.rankOf(3) != 3 || c.rankOf(4) != -1 {
		t.Fatal("rankOf wrong")
	}
	if c.Size() != 4 || c.WorldRank(2) != 2 {
		t.Fatalf("comm world of size %d maps rank 2 to %d", c.Size(), c.WorldRank(2))
	}
	if w.Engine() == nil {
		t.Fatal("engine accessor nil")
	}
}
