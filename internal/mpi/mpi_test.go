package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
)

func newWorld(nodes, ppn, hcas int) *World {
	return New(Config{Topo: topology.New(nodes, ppn, hcas)})
}

func TestSendRecvIntraNode(t *testing.T) {
	w := newWorld(1, 2, 2)
	var got Buf
	var latency sim.Time
	err := w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(w.CommWorld(), 1, 7, Bytes([]byte("payload")))
		case 1:
			got = p.Recv(w.CommWorld(), 0, 7)
			latency = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data()) != "payload" {
		t.Fatalf("got %q", got.Data())
	}
	want := w.Params().CMATime(7, 1)
	if latency != sim.Time(want) {
		t.Fatalf("latency %v, want %v", latency, want)
	}
}

func TestSendRecvInterNode(t *testing.T) {
	w := newWorld(2, 1, 2)
	var latency sim.Time
	n := 1024 // below stripe threshold: single rail
	err := w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(w.CommWorld(), 1, 0, Phantom(n))
		case 1:
			p.Recv(w.CommWorld(), 0, 0)
			latency = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := w.Params().HCATime(n, 1)
	if latency != sim.Time(want) {
		t.Fatalf("latency %v, want %v", latency, want)
	}
}

func TestStripingHalvesLargeMessageLatency(t *testing.T) {
	// The Figure 3 effect: with 2 rails a large message takes about half
	// the single-rail time.
	n := 4 << 20
	run := func(hcas int, opts ...SendOption) sim.Time {
		w := newWorld(2, 1, hcas)
		var latency sim.Time
		err := w.Run(func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.Send(w.CommWorld(), 1, 0, Phantom(n), opts...)
			case 1:
				p.Recv(w.CommWorld(), 0, 0)
				latency = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return latency
	}
	one := run(1)
	two := run(2)
	ratio := float64(one) / float64(two)
	if ratio < 1.8 || ratio > 2.1 {
		t.Fatalf("striping speedup = %.2f (1 rail %v, 2 rails %v), want ~2x", ratio, one, two)
	}
}

func TestViaRailPinsTransfer(t *testing.T) {
	w := newWorld(2, 1, 2)
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		switch p.Rank() {
		case 0:
			p.Send(c, 1, 0, Phantom(1<<20), ViaRail(1))
		case 1:
			p.Recv(c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only rail 1 should have been used.
	n0 := w.nodes[0]
	if n0.hcas[0].tx.Uses() != 0 {
		t.Fatal("rail 0 tx used despite ViaRail(1)")
	}
	if n0.hcas[1].tx.Uses() != 1 {
		t.Fatalf("rail 1 tx uses = %d, want 1", n0.hcas[1].tx.Uses())
	}
}

func TestViaHCALoopbackUsesSameNodeRails(t *testing.T) {
	w := newWorld(1, 2, 2)
	var latency sim.Time
	n := 1 << 20
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		switch p.Rank() {
		case 0:
			p.Send(c, 1, 0, Phantom(n), ViaHCA())
		case 1:
			p.Recv(c, 0, 0)
			latency = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	nd := w.nodes[0]
	if nd.hcas[0].tx.Uses()+nd.hcas[1].tx.Uses() == 0 {
		t.Fatal("ViaHCA did not touch any rail")
	}
	want := w.Params().HCATime(n, 2) // striped loopback
	if latency != sim.Time(want) {
		t.Fatalf("latency %v, want %v", latency, want)
	}
}

func TestRoundRobinSmallMessages(t *testing.T) {
	w := newWorld(2, 1, 2)
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		switch p.Rank() {
		case 0:
			for i := 0; i < 4; i++ {
				p.Send(c, 1, i, Phantom(64))
			}
		case 1:
			for i := 0; i < 4; i++ {
				p.Recv(c, 0, i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	nd := w.nodes[0]
	if nd.hcas[0].tx.Uses() != 2 || nd.hcas[1].tx.Uses() != 2 {
		t.Fatalf("round robin uses = %d/%d, want 2/2",
			nd.hcas[0].tx.Uses(), nd.hcas[1].tx.Uses())
	}
}

func TestNonblockingOverlap(t *testing.T) {
	// An Isend over the HCA should overlap with local compute: total time
	// is max(transfer, compute), not the sum.
	w := newWorld(2, 1, 1)
	n := 1 << 20
	compute := 500 * sim.Microsecond
	var done sim.Time
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		switch p.Rank() {
		case 0:
			req := p.Isend(c, 1, 0, Phantom(n))
			p.Sleep(compute) // concurrent local work
			p.Wait(req)
			done = p.Now()
		case 1:
			p.Recv(c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	transfer := w.Params().HCATime(n, 1)
	want := transfer
	if compute > want {
		want = compute
	}
	if done != sim.Time(want) {
		t.Fatalf("overlapped completion %v, want max(transfer %v, compute %v)",
			done, transfer, compute)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	w := newWorld(1, 3, 1)
	var fromTag, fromSrc Buf
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		switch p.Rank() {
		case 0:
			p.Send(c, 2, 5, Bytes([]byte("tag5")))
		case 1:
			p.Send(c, 2, 9, Bytes([]byte("tag9")))
		case 2:
			fromTag = p.Recv(c, 1, 9)
			fromSrc = p.Recv(c, AnySource, 5)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(fromTag.Data()) != "tag9" || string(fromSrc.Data()) != "tag5" {
		t.Fatalf("matching wrong: %q, %q", fromTag.Data(), fromSrc.Data())
	}
}

func TestCommIsolation(t *testing.T) {
	// The same (src, tag) on different comms must not match each other.
	w := newWorld(1, 2, 1)
	sub := w.NewComm([]int{0, 1})
	var first Buf
	err := w.Run(func(p *Proc) {
		world := w.CommWorld()
		switch p.Rank() {
		case 0:
			p.Send(world, 1, 3, Bytes([]byte("world")))
			p.Send(sub, 1, 3, Bytes([]byte("sub")))
		case 1:
			first = p.Recv(sub, 0, 3)
			p.Recv(world, 0, 3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(first.Data()) != "sub" {
		t.Fatalf("comm isolation broken: got %q", first.Data())
	}
}

func TestNodeAndLeaderComms(t *testing.T) {
	w := newWorld(3, 4, 1)
	err := w.Run(func(p *Proc) {
		nc := w.NodeComm(p.Node())
		if nc.Size() != 4 {
			t.Errorf("node comm size %d", nc.Size())
		}
		if got := nc.Rank(p); got != p.Local() {
			t.Errorf("node comm rank %d, want %d", got, p.Local())
		}
		lc := w.LeaderComm()
		if p.IsLeader() {
			if got := lc.Rank(p); got != p.Node() {
				t.Errorf("leader comm rank %d, want node %d", got, p.Node())
			}
		} else if lc.Rank(p) != -1 {
			t.Errorf("non-leader in leader comm")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := newWorld(2, 2, 1)
	times := make([]sim.Time, 4)
	err := w.Run(func(p *Proc) {
		p.Sleep(sim.Duration(p.Rank()) * 100 * sim.Microsecond)
		w.CommWorld().Barrier(p)
		times[p.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ti := range times {
		if ti != sim.Time(300*sim.Microsecond) {
			t.Fatalf("rank %d left barrier at %v, want 300us", r, ti)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	w := newWorld(1, 3, 1)
	err := w.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			w.CommWorld().Barrier(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShmCountersOverlap(t *testing.T) {
	// Leader copies a chunk in and bumps the counter; peers copy out after
	// waiting. Real bytes must round-trip.
	w := newWorld(1, 3, 1)
	payload := []byte("chunk-data")
	got := make([]Buf, 3)
	err := w.Run(func(p *Proc) {
		s := p.ShmOpen("bcast", 64)
		if p.Local() == 0 {
			p.Sleep(10 * sim.Microsecond)
			s.CopyIn(p, 0, Bytes(payload))
			s.Counter("ready").Add(1)
		} else {
			s.WaitCounter(p, "ready", 1)
			dst := NewBuf(len(payload))
			s.CopyOut(p, 0, dst)
			got[p.Local()] = dst
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l < 3; l++ {
		if string(got[l].Data()) != string(payload) {
			t.Fatalf("local %d got %q", l, got[l].Data())
		}
	}
}

func TestShmSharedAcrossRanksDistinctAcrossNodes(t *testing.T) {
	w := newWorld(2, 2, 1)
	err := w.Run(func(p *Proc) {
		s := p.ShmOpen("region", 16)
		if p.Local() == 0 {
			s.CopyIn(p, 0, Bytes([]byte{byte(p.Node())}))
			s.Counter("ok").Add(1)
		} else {
			s.WaitCounter(p, "ok", 1)
			dst := NewBuf(1)
			s.CopyOut(p, 0, dst)
			if dst.Data()[0] != byte(p.Node()) {
				t.Errorf("node %d read %d from its shm", p.Node(), dst.Data()[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShmWrongNodePanics(t *testing.T) {
	w := newWorld(2, 1, 1)
	var region *Shm
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			region = p.ShmOpen("r", 8)
		}
		w.CommWorld().Barrier(p)
		if p.Rank() == 1 {
			defer func() {
				if recover() == nil {
					t.Error("cross-node shm access should panic")
				}
			}()
			region.CopyIn(p, 0, Phantom(4))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhantomPayloadsFlow(t *testing.T) {
	w := New(Config{Topo: topology.New(2, 2, 2), Phantom: true})
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		if p.Rank() == 0 {
			p.Send(c, 3, 0, Phantom(1<<20))
		}
		if p.Rank() == 3 {
			got := p.Recv(c, 0, 0)
			if !got.IsPhantom() || got.Len() != 1<<20 {
				t.Errorf("phantom recv = %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockSurfaceable(t *testing.T) {
	w := newWorld(1, 2, 1)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(w.CommWorld(), 1, 0) // never sent
		}
		if p.Rank() == 1 {
			p.Wait(p.Irecv(w.CommWorld(), AnySource, 42)) // never sent
		}
	})
	if err == nil {
		t.Fatal("want deadlock error")
	}
	// The report names each stuck receive's envelope, byte for byte.
	const want = "sim: deadlock at t=0.000us: 2 of 2 processes blocked forever:\n" +
		"  rank0: receiving msg(comm=0 src=1 tag=0) from mailbox rank0\n" +
		"  rank1: receiving msg(comm=0 src=-1 tag=42) from mailbox rank1\n"
	if !errors.Is(err, sim.ErrDeadlock) || err.Error() != want {
		t.Fatalf("report =\n%q\nwant\n%q", err.Error(), want)
	}
}

func TestTracerRecordsEvents(t *testing.T) {
	rec := trace.New()
	w := New(Config{Topo: topology.New(2, 1, 1), Tracer: rec})
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		if p.Rank() == 0 {
			p.Send(c, 1, 0, Phantom(1<<16))
		} else {
			p.Recv(c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
	var sawHCA, sawWait bool
	for _, ev := range rec.Events() {
		switch ev.Cat {
		case trace.CatHCA:
			sawHCA = true
		case trace.CatWait:
			sawWait = true
		}
	}
	if !sawHCA || !sawWait {
		t.Fatalf("missing categories: hca=%v wait=%v", sawHCA, sawWait)
	}
}

func TestCMACongestionSlowsConcurrentCopies(t *testing.T) {
	// Many concurrent large intra-node transfers must take longer per
	// transfer than a single one (the paper's b factor).
	n := 4 << 20
	run := func(pairs int) sim.Time {
		w := newWorld(1, 2*pairs, 1)
		err := w.Run(func(p *Proc) {
			c := w.CommWorld()
			if p.Rank() < pairs {
				p.Send(c, p.Rank()+pairs, 0, Phantom(n))
			} else {
				p.Recv(c, p.Rank()-pairs, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Makespan()
	}
	single := run(1)
	many := run(24) // 24 concurrent 4MB CMA copies oversubscribe the pool
	if many <= single {
		t.Fatalf("24 concurrent copies (%v) not slower than 1 (%v)", many, single)
	}
}

func TestEpochMonotonic(t *testing.T) {
	w := newWorld(1, 2, 1)
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		for i := 0; i < 3; i++ {
			if e := c.Epoch(p); e != i {
				t.Errorf("epoch %d, want %d", e, i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBufSliceAndCopy(t *testing.T) {
	b := NewBuf(10)
	src := Bytes([]byte{1, 2, 3})
	b.Slice(4, 3).CopyFrom(src)
	if b.Data()[4] != 1 || b.Data()[6] != 3 {
		t.Fatalf("slice copy failed: %v", b.Data())
	}
	ph := Phantom(3)
	ph.CopyFrom(src) // must not panic
	if !ph.IsPhantom() {
		t.Fatal("phantom lost phantomness")
	}
	clone := b.Clone()
	clone.Data()[4] = 99
	if b.Data()[4] == 99 {
		t.Fatal("clone aliases original")
	}
	if !clone.Slice(0, 4).Equal(b.Slice(0, 4)) || clone.Len() != b.Len() || cap(clone.Data()) != b.Len() {
		t.Fatalf("clone of %v is %v (cap %d)", b.Data(), clone.Data(), cap(clone.Data()))
	}
	if NewBuf(0).Clone().IsPhantom() || !Phantom(7).Clone().IsPhantom() {
		t.Fatal("clone changed phantomness")
	}
}

func TestBufEqual(t *testing.T) {
	if !Bytes([]byte{1, 2}).Equal(Bytes([]byte{1, 2})) {
		t.Fatal("equal bufs not equal")
	}
	if Bytes([]byte{1, 2}).Equal(Bytes([]byte{1, 3})) {
		t.Fatal("unequal bufs equal")
	}
	if !Phantom(5).Equal(Phantom(5)) {
		t.Fatal("phantom bufs of same size should be equal")
	}
	if Phantom(5).Equal(Phantom(6)) {
		t.Fatal("phantoms of different size equal")
	}
}

// Property: any (nodes, ppn, hcas, size) pingpong between rank 0 and the
// last rank delivers exactly the sent bytes.
func TestQuickPingPongDelivers(t *testing.T) {
	f := func(nodes, ppn, hcas uint8, size uint16) bool {
		n := int(nodes)%3 + 1
		l := int(ppn)%3 + 1
		h := int(hcas)%3 + 1
		if n*l < 2 {
			return true
		}
		w := newWorld(n, l, h)
		payload := make([]byte, int(size)%2048+1)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		ok := true
		err := w.Run(func(p *Proc) {
			c := w.CommWorld()
			last := p.Size() - 1
			switch p.Rank() {
			case 0:
				p.Send(c, last, 1, Bytes(payload))
				echo := p.Recv(c, last, 2)
				ok = ok && echo.Equal(Bytes(payload))
			case last:
				got := p.Recv(c, 0, 1)
				p.Send(c, 0, 2, got)
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: transfer latency is monotone in message size for a fixed path.
func TestQuickLatencyMonotoneInSize(t *testing.T) {
	prm := netmodel.Thor()
	f := func(a, b uint32) bool {
		x, y := int(a%(8<<20))+1, int(b%(8<<20))+1
		if x > y {
			x, y = y, x
		}
		return prm.HCATime(x, 2) <= prm.HCATime(y, 2) &&
			prm.CMATime(x, 1) <= prm.CMATime(y, 1) &&
			prm.CopyTime(x, 4) <= prm.CopyTime(y, 4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitTwiceReturnsSameData(t *testing.T) {
	w := newWorld(1, 2, 1)
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		if p.Rank() == 0 {
			p.Send(c, 1, 0, Bytes([]byte("x")))
		} else {
			req := p.Irecv(c, 0, 0)
			first := p.Wait(req)
			second := p.Wait(req)
			if !first.Equal(second) {
				t.Error("double Wait returned different data")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldAccessors(t *testing.T) {
	w := newWorld(2, 3, 2)
	if w.Topo().Size() != 6 || w.Phantom() {
		t.Fatal("accessor mismatch")
	}
	err := w.Run(func(p *Proc) {
		if p.Size() != 6 || p.w.topo.PPN != 3 || p.w.topo.HCAs != 2 {
			t.Errorf("rank %d sees wrong shape", p.Rank())
		}
		if p.Node() != p.Rank()/3 || p.Local() != p.Rank()%3 {
			t.Errorf("rank %d mapping wrong", p.Rank())
		}
		if (p.Local() == 0) != p.IsLeader() {
			t.Errorf("leader flag wrong")
		}
		if p.World() != w {
			t.Errorf("world accessor wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvCombined(t *testing.T) {
	// A 4-rank ring rotation using SendRecv: everyone passes its rank
	// byte right and receives from the left.
	w := newWorld(2, 2, 1)
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		got := p.SendRecv(c, right, 0, Bytes([]byte{byte(p.Rank())}), left, 0)
		if got.Data()[0] != byte(left) {
			t.Errorf("rank %d got %d, want %d", p.Rank(), got.Data()[0], left)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func ExampleTag() {
	fmt.Println(Tag(1, 2, 3), Tag(0, 0, 7))
	// Output: 2228227 7
}

// TestPerWorld: a PerWorld value is built on the first request in a world
// and handed to every rank; another arg, another wrapper, or another
// world builds its own.
func TestPerWorld(t *testing.T) {
	var mu sync.Mutex
	builds := map[string]int{}
	counted := func(name string) func(w *World, arg int) *int {
		return PerWorld(func(w *World, arg int) *int {
			mu.Lock()
			builds[fmt.Sprint(name, arg)]++
			mu.Unlock()
			return &arg
		})
	}
	a, b := counted("a"), counted("b")
	for world := 1; world <= 2; world++ {
		w := newWorld(2, 2, 1)
		got := make([]*int, w.Topo().Size())
		err := w.Run(func(p *Proc) {
			got[p.Rank()] = a(w, 7)
			if a(w, 8) == got[p.Rank()] || b(w, 7) == got[p.Rank()] {
				t.Errorf("rank %d: distinct (wrapper, arg) pairs share a value", p.Rank())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, v := range got {
			if v != got[0] || *v != 7 {
				t.Errorf("world %d: rank %d got %p (%d), rank 0 got %p", world, r, v, *v, got[0])
			}
		}
		for _, k := range []string{"a7", "a8", "b7"} {
			if builds[k] != world {
				t.Errorf("after %d world(s): %s built %d times", world, k, builds[k])
			}
		}
	}
}

// TestSharedTable: worlds built on one Shared table build each PerWorld
// value once between them, a world without the table builds its own, and
// New refuses the table to a world of any other topology.
func TestSharedTable(t *testing.T) {
	builds := 0
	get := PerWorld(func(w *World, arg int) *int {
		builds++
		return &arg
	})
	topo := topology.New(2, 2, 1)
	sh := NewShared(topo)
	var first *int
	for world := 1; world <= 3; world++ {
		w := New(Config{Topo: topology.New(2, 2, 1), Shared: sh})
		err := w.Run(func(p *Proc) {
			if first == nil {
				first = get(w, 7)
			}
			if v := get(w, 7); v != first || *v != 7 {
				t.Errorf("world %d rank %d: got %p (%d), the table holds %p", world, p.Rank(), v, *v, first)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if builds != 1 {
		t.Errorf("three worlds on one table built the value %d times, want 1", builds)
	}
	if w := New(Config{Topo: topo}); get(w, 7) == first || builds != 2 {
		t.Errorf("a world without the table got the table's value (%d builds)", builds)
	}

	cyclic := topology.New(2, 2, 1)
	cyclic.Layout = topology.Cyclic
	mixed := topology.New(2, 2, 2)
	mixed.NodeHCAs = []int{1, 2}
	for _, other := range []topology.Cluster{topology.New(2, 2, 2), topology.New(4, 1, 1), cyclic, mixed} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("New accepted a table shared by %v worlds for a %v world", topo, other)
				}
			}()
			New(Config{Topo: other, Shared: sh})
		}()
	}
	if sh2 := NewShared(mixed); New(Config{Topo: mixed, Shared: sh2}) == nil {
		t.Error("New refused a table of its own topology")
	}
}
