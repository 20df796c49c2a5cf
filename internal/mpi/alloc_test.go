package mpi

import (
	"fmt"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

// TestAllocsPerMessageFence: a message costs the message. 32 phantom ranks
// pass small messages round a ring with SendRecv, then exchange striped
// ones across the two nodes with explicit Irecv/Isend/Wait/Wait, and the
// whole run — world, engine and processes included — may allocate at most
// half an object per message. A message record made per send rather than
// taken from the world's spares, a Request that escapes the frame that
// waits it, a closure per deposit or per match, send options that push
// sendOpts to the heap, or rail slices made per send each add one and
// break it.
func TestAllocsPerMessageFence(t *testing.T) {
	const rounds = 40
	topo := topology.New(2, 16, 2)
	prm := netmodel.Thor()
	striped := 4 * prm.StripeThreshold
	allocs := testing.AllocsPerRun(5, func() {
		w := New(Config{Topo: topo, Params: prm, Phantom: true})
		err := w.Run(func(p *Proc) {
			c := w.CommWorld()
			n := p.Size()
			next, prev := (p.Rank()+1)%n, (p.Rank()-1+n)%n
			for k := 0; k < rounds; k++ {
				p.SendRecv(c, next, k, Phantom(1024), prev, k)
			}
			across := (p.Rank() + n/2) % n
			for k := rounds; k < 2*rounds; k++ {
				rreq := p.Irecv(c, across, k)
				sreq := p.Isend(c, across, k, Phantom(striped))
				p.Wait(rreq)
				p.Wait(sreq)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	msgs := float64(topo.Size() * 2 * rounds)
	if perMsg := allocs / msgs; perMsg > 0.5 {
		t.Fatalf("%.2f allocations per message (%.0f over %.0f messages), fence is 0.5", perMsg, allocs, msgs)
	} else {
		t.Logf("%.2f allocations per message (%.0f over %.0f messages)", perMsg, allocs, msgs)
	}
}

// TestNewAllocFence: building a world allocates what it holds, not an
// object per piece of it. The explorer builds 40 000 four-rank worlds a
// pass. The engine hands out its resources, mailboxes, counters and gauges
// a chunk at a time, New makes one slice each of nodes, rails and ranks,
// the standard communicators index their ranks arithmetically, and per-comm
// epochs and shared-memory regions cost nothing until a rank uses them:
// 62 allocations on 2x2x2 and 4 708 on 64x16x2 (118 and 10 864 with an
// allocation per object and four maps per rank). The fences are that plus
// 15 %.
func TestNewAllocFence(t *testing.T) {
	for _, c := range []struct {
		topo  topology.Cluster
		fence float64
	}{
		{topology.New(2, 2, 2), 71},
		{topology.New(64, 16, 2), 5414},
	} {
		allocs := testing.AllocsPerRun(5, func() { New(Config{Topo: c.topo}) })
		if allocs > c.fence {
			t.Errorf("%v: New made %.0f allocations, fence is %.0f", c.topo, allocs, c.fence)
		} else {
			t.Logf("%v: New made %.0f allocations", c.topo, allocs)
		}
	}
}

// TestReceivedBufOutlivesItsRecord: a received message's record goes back
// to the world and carries later messages; the payload Recv handed out does
// not. Two ranks exchange 101 messages each way with real bytes, and the
// first Buf each received still reads as it did when it arrived.
func TestReceivedBufOutlivesItsRecord(t *testing.T) {
	const more, size = 100, 256
	payload := func(from, k int) Buf {
		b := NewBuf(size)
		for i := range b.Data() {
			b.Data()[i] = byte(from*131 + k*7 + i)
		}
		return b
	}
	w := New(Config{Topo: topology.New(2, 1, 1)})
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		peer := 1 - p.Rank()
		first := p.SendRecv(c, peer, 0, payload(p.Rank(), 0), peer, 0)
		for k := 1; k <= more; k++ {
			if got := p.SendRecv(c, peer, k, payload(p.Rank(), k), peer, k); !got.Equal(payload(peer, k)) {
				t.Errorf("rank %d: message %d arrived changed", p.Rank(), k)
			}
		}
		if !first.Equal(payload(peer, 0)) {
			t.Errorf("rank %d: the first received Buf changed while %d more messages were exchanged", p.Rank(), more)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyTeardown(); err != nil {
		t.Fatal(err)
	}
	// Every record was received, so every record ever made is a spare now.
	if made, sent := len(w.spare), 2*(more+1); made >= sent/10 {
		t.Errorf("%d records made for %d messages with 2 in flight at once: the records are not reused", made, sent)
	}
	for _, m := range w.spare {
		if m.data.Len() != 0 || m.data.Data() != nil {
			t.Errorf("spare record still holds a payload: %+v", *m)
		}
	}
}

// TestCompletedPayloadsAreReused: a payload WaitInto copies or folds out
// goes back to the world, and a later send of exactly its size snapshots
// into it, so a world makes as many payload arrays as it has messages in
// flight at once. Two ranks exchange 101 messages each way, alternating
// between two sizes, one message each way in flight: the world makes two
// arrays per size, and every byte arrives. Nothing comes back from the same
// exchange received through SendRecv, since a Buf Wait hands out belongs
// to the caller, nor from one whose payloads are too short to be worth
// keeping.
func TestCompletedPayloadsAreReused(t *testing.T) {
	const more = 100
	for _, tc := range []struct {
		name  string
		sizes [2]int
		into  bool
		spare int // arrays in World.payloads once every message is in
	}{
		{"WaitInto", [2]int{256, 257}, true, 4},
		{"SendRecv", [2]int{256, 257}, false, 0},
		{"WaitInto, short payloads", [2]int{8, keptPayload}, true, 0},
	} {
		payload := func(from, k int) Buf {
			b := NewBuf(tc.sizes[k%2])
			for i := range b.Data() {
				b.Data()[i] = byte(from*131 + k*7 + i)
			}
			return b
		}
		folds := 0
		fold := func(p *Proc, dst, src Buf) {
			folds++
			if len(src.Data()) != src.Len() {
				t.Errorf("%s: a %d-byte payload arrived in a %d-byte array", tc.name, src.Len(), len(src.Data()))
			}
			dst.CopyFrom(src)
		}
		w := New(Config{Topo: topology.New(2, 1, 1)})
		err := w.Run(func(p *Proc) {
			c := w.CommWorld()
			peer := 1 - p.Rank()
			for k := 0; k <= more; k++ {
				got := NewBuf(tc.sizes[k%2])
				if tc.into {
					rreq := p.Irecv(c, peer, k)
					sreq := p.Isend(c, peer, k, payload(p.Rank(), k))
					if k%3 == 0 {
						p.WaitInto(rreq, got, fold)
					} else {
						p.WaitInto(rreq, got, nil)
					}
					p.Wait(sreq)
				} else {
					got = p.SendRecv(c, peer, k, payload(p.Rank(), k), peer, k)
				}
				if !got.Equal(payload(peer, k)) {
					t.Errorf("%s: rank %d: message %d arrived changed", tc.name, p.Rank(), k)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.VerifyTeardown(); err != nil {
			t.Fatal(err)
		}
		if want := 2 * (more/3 + 1); tc.into && folds != want {
			t.Errorf("%s: the reducer ran %d times, want %d", tc.name, folds, want)
		}
		// Every message is in, so every array given back is spare now.
		if len(w.payloads) != tc.spare {
			t.Errorf("%s: %d spare payload arrays after %d messages of 2 sizes with 2 in flight at once, want %d",
				tc.name, len(w.payloads), 2*(more+1), tc.spare)
		}
		for _, a := range w.payloads {
			if cap(a) != tc.sizes[0] && cap(a) != tc.sizes[1] {
				t.Errorf("%s: a spare payload array has capacity %d, not a message size", tc.name, cap(a))
			}
		}
	}
}

// TestSparePayloadsAgeOut: a world keeps at most maxSparePayloads spare
// arrays. Giving one back to a full store drops the oldest, so a size
// nobody sends again leaves, and a send of a size still kept reuses it.
func TestSparePayloadsAgeOut(t *testing.T) {
	const extra = 10
	w := New(Config{Topo: topology.New(2, 1, 1)})
	for i := 0; i < maxSparePayloads+extra; i++ {
		w.giveBack(make([]byte, 100+i))
	}
	if len(w.payloads) != maxSparePayloads {
		t.Fatalf("%d spare arrays after %d given back, want the cap %d",
			len(w.payloads), maxSparePayloads+extra, maxSparePayloads)
	}
	for i, a := range w.payloads {
		if cap(a) != 100+extra+i {
			t.Fatalf("spare %d has capacity %d, want %d: the oldest should have gone", i, cap(a), 100+extra+i)
		}
	}
	kept := w.payloads[0]
	if got := w.snapshot(Bytes(make([]byte, 100+extra))); &got.Data()[0] != &kept[0] {
		t.Error("a send of the oldest kept size did not reuse its array")
	}
	if len(w.payloads) != maxSparePayloads-1 || cap(w.payloads[0]) != 100+extra+1 {
		t.Errorf("after the reuse, %d spares starting at capacity %d, want %d starting at %d",
			len(w.payloads), cap(w.payloads[0]), maxSparePayloads-1, 100+extra+1)
	}
	if got := w.snapshot(Bytes(make([]byte, 100))); len(got.Data()) != 100 || len(w.payloads) != maxSparePayloads-1 {
		t.Error("a send of a size that aged out took a spare array")
	}
}

// TestWaitIntoRefusesASend: only a receive has a payload to complete into
// a buffer.
func TestWaitIntoRefusesASend(t *testing.T) {
	expectPanic(t, "WaitInto on a send", func(p *Proc, w *World) {
		p.WaitInto(p.Isend(w.CommWorld(), 1, 0, Phantom(8)), Phantom(8), nil)
	})
}

// TestSendOptionsFillSendOpts pins what every option, and every
// combination of options the tree passes, does to a send's sendOpts.
func TestSendOptionsFillSendOpts(t *testing.T) {
	cases := []struct {
		name string
		opts []SendOption
		want sendOpts
	}{
		{"none", nil, sendOpts{rail: -1}},
		{"zero value", []SendOption{{}}, sendOpts{rail: -1}},
		{"ViaHCA", []SendOption{ViaHCA()}, sendOpts{forceHCA: true, rail: -1}},
		{"ViaRail(0)", []SendOption{ViaRail(0)}, sendOpts{forceHCA: true, rail: 0}},
		{"ViaRail(3)", []SendOption{ViaRail(3)}, sendOpts{forceHCA: true, rail: 3}},
		{"ByRef", []SendOption{ByRef()}, sendOpts{byRef: true, rail: -1}},
		{"ViaRail(1)+ByRef", []SendOption{ViaRail(1), ByRef()}, sendOpts{forceHCA: true, byRef: true, rail: 1}},
		{"ViaRail(2)+ViaHCA", []SendOption{ViaRail(2), ViaHCA()}, sendOpts{forceHCA: true, rail: 2}},
	}
	for _, tc := range cases {
		got := sendOpts{rail: -1}
		for _, opt := range tc.opts {
			opt.apply(&got)
		}
		if got != tc.want {
			t.Errorf("%s: sendOpts = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	defer func() {
		const want = "mpi: ViaRail(-2): negative rail"
		if r := recover(); fmt.Sprint(r) != want {
			t.Errorf("ViaRail(-2) panicked with %q, want %q", fmt.Sprint(r), want)
		}
	}()
	ViaRail(-2)
}
