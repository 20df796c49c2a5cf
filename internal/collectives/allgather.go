// Package collectives implements the conventional collective algorithms the
// paper builds on and compares against: the flat Ring, Recursive Doubling,
// Bruck and Direct-Spread allgathers (Section 2.2), the two-level leader-
// based allgathers of Kandalla et al. and Mamidala et al. (Section 1.1),
// and the bandwidth-optimal Ring allreduce of Patarasuk and Yuan
// (Section 2.4), plus the library profiles that stand in for HPC-X and
// MVAPICH2-X in the evaluation.
//
// Every algorithm moves real payload bytes when given real buffers, so the
// whole package is verified against a sequential oracle; given phantom
// buffers the same code runs at the paper's full scale.
package collectives

import (
	"fmt"

	"mha/internal/mpi"
)

// checkAllgatherArgs validates an allgather call: recv must hold exactly
// Size contributions of send's length.
func checkAllgatherArgs(c *mpi.Comm, send, recv mpi.Buf) {
	if recv.Len() != send.Len()*c.Size() {
		panic(fmt.Sprintf("collectives: allgather recv %dB != %d ranks x %dB",
			recv.Len(), c.Size(), send.Len()))
	}
}

// RingAllgather is the flat ring algorithm: N-1 nearest-neighbor steps, each
// forwarding the chunk received in the previous step. With more than one
// process per node the ring crosses intra-node links on most hops, which is
// exactly the bottleneck the paper's Figure 2 visualizes.
func RingAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	checkAllgatherArgs(c, send, recv)
	m := send.Len()
	n := c.Size()
	me := c.Rank(p)
	epoch := c.Epoch(p)
	p.LocalCopy(recv.Slice(me*m, m), send)
	if n == 1 {
		return
	}
	right := (me + 1) % n
	left := (me - 1 + n) % n
	cur := me
	for s := 0; s < n-1; s++ {
		tag := mpi.Tag(epoch, mpi.PhaseRing, s)
		rreq := p.Irecv(c, left, tag)
		sreq := p.Isend(c, right, tag, recv.Slice(cur*m, m))
		cur = (cur - 1 + n) % n
		p.WaitInto(rreq, recv.Slice(cur*m, m), nil)
		p.Wait(sreq)
	}
}

// RDAllgather is recursive doubling: log2(N) steps with doubling block
// sizes. For non-power-of-two communicators it falls back to Bruck, which
// has the same log-step structure without the power-of-two restriction
// (the paper notes RD "requires additional steps" in that case).
func RDAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	checkAllgatherArgs(c, send, recv)
	n := c.Size()
	if n&(n-1) != 0 {
		BruckAllgather(p, c, send, recv)
		return
	}
	m := send.Len()
	me := c.Rank(p)
	epoch := c.Epoch(p)
	p.LocalCopy(recv.Slice(me*m, m), send)
	// After step k the rank owns the 2^(k+1)-aligned block containing it.
	blockStart := me
	blockLen := 1
	for dist := 1; dist < n; dist *= 2 {
		peer := me ^ dist
		tag := mpi.Tag(epoch, mpi.PhaseRD, dist)
		own := recv.Slice(blockStart*m, blockLen*m)
		got := p.SendRecv(c, peer, tag, own, peer, tag)
		peerStart := blockStart ^ dist // the peer's block is the sibling
		recv.Slice(peerStart*m, blockLen*m).CopyFrom(got)
		if peerStart < blockStart {
			blockStart = peerStart
		}
		blockLen *= 2
	}
}

// BruckAllgather is Bruck's allgather: ceil(log2 N) steps for any N,
// followed by a local rotation to put blocks in rank order.
func BruckAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	checkAllgatherArgs(c, send, recv)
	m := send.Len()
	n := c.Size()
	me := c.Rank(p)
	epoch := c.Epoch(p)
	tmp := mpi.Make(n*m, send.IsPhantom())
	p.LocalCopy(tmp.Slice(0, m), send)
	filled := 1
	step := 0
	for pow := 1; pow < n; pow *= 2 {
		cnt := pow
		if n-filled < cnt {
			cnt = n - filled
		}
		dst := (me - pow + n) % n
		src := (me + pow) % n
		tag := mpi.Tag(epoch, mpi.PhaseBruck, step)
		got := p.SendRecv(c, dst, tag, tmp.Slice(0, cnt*m), src, tag)
		tmp.Slice(filled*m, cnt*m).CopyFrom(got)
		filled += cnt
		step++
	}
	// Rotate: tmp[i] holds the block of rank (me+i) mod n.
	for i := 0; i < n; i++ {
		recv.Slice(((me+i)%n)*m, m).CopyFrom(tmp.Slice(i*m, m))
	}
	p.ChargeCopy(n * m) // one bulk memmove for the rotation
}

// DirectSpreadAllgather is the dissemination algorithm of Section 2.2: in
// step i every rank receives directly from rank (r-i) mod N and sends to
// rank (r+i) mod N — no forwarding dependencies, which is what makes it
// extensible with HCA offload (the MHA-intra design builds on it).
func DirectSpreadAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	checkAllgatherArgs(c, send, recv)
	m := send.Len()
	n := c.Size()
	me := c.Rank(p)
	epoch := c.Epoch(p)
	p.LocalCopy(recv.Slice(me*m, m), send)
	for s := 1; s < n; s++ {
		dst := (me + s) % n
		src := (me - s + n) % n
		tag := mpi.Tag(epoch, mpi.PhaseDirect, s)
		rreq := p.Irecv(c, src, tag)
		sreq := p.Isend(c, dst, tag, send)
		p.WaitInto(rreq, recv.Slice(src*m, m), nil)
		p.Wait(sreq)
	}
}

// NeighborExchangeAllgather pairs ranks in alternating even/odd exchanges;
// it is included as an additional conventional baseline for even N and used
// by the property tests as one more oracle-checked algorithm.
func NeighborExchangeAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	checkAllgatherArgs(c, send, recv)
	n := c.Size()
	if n%2 != 0 {
		// The classic neighbor-exchange needs even N; fall back.
		RingAllgather(p, c, send, recv)
		return
	}
	m := send.Len()
	me := c.Rank(p)
	epoch := c.Epoch(p)
	p.LocalCopy(recv.Slice(me*m, m), send)
	if n == 1 {
		return
	}
	even := me%2 == 0

	// Step 1: exchange own blocks with the first neighbor; afterwards
	// every rank holds the even-aligned pair {prevLo, prevLo+1}.
	var peer, prevLo int
	if even {
		peer = (me + 1) % n
		prevLo = me
	} else {
		peer = (me - 1 + n) % n
		prevLo = peer
	}
	tag := mpi.Tag(epoch, mpi.PhaseDirect, 1<<10|1)
	got := p.SendRecv(c, peer, tag, recv.Slice(me*m, m), peer, tag)
	recv.Slice(peer*m, m).CopyFrom(got)

	// Steps 2..n/2: alternate neighbors, each time exchanging the pair of
	// blocks acquired in the previous step. All pair bases are even, so a
	// pair never wraps around the block array.
	for k := 2; k <= n/2; k++ {
		var lo int
		if even {
			if k%2 == 0 {
				peer = (me - 1 + n) % n
				lo = (me - k + n) % n
			} else {
				peer = (me + 1) % n
				lo = (me + k - 1) % n
			}
		} else {
			if k%2 == 0 {
				peer = (me + 1) % n
				lo = (me + k - 1) % n
			} else {
				peer = (me - 1 + n) % n
				lo = (me - k + n) % n
			}
		}
		tag := mpi.Tag(epoch, mpi.PhaseDirect, 1<<10|k)
		got := p.SendRecv(c, peer, tag, recv.Slice(prevLo*m, 2*m), peer, tag)
		recv.Slice(lo*m, 2*m).CopyFrom(got)
		prevLo = lo
	}
}
