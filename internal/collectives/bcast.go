package collectives

import "mha/internal/mpi"

// BinomialBcast broadcasts root's buffer to every rank of c along a
// binomial tree: log2(N) rounds, with the set of holders doubling each
// round. This is the classic flat baseline for MPI_Bcast.
func BinomialBcast(p *mpi.Proc, c *mpi.Comm, root int, buf mpi.Buf) {
	n := c.Size()
	if n == 1 {
		return
	}
	me := c.Rank(p)
	epoch := c.Epoch(p)
	// Work in root-relative coordinates so any root works. Each non-root
	// rank receives once, from the rank that differs in its lowest set
	// bit; it then forwards to the sub-tree below that bit, highest mask
	// first (the MPICH binomial schedule).
	rel := (me - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (rel - mask + root) % n
			p.WaitInto(p.Irecv(c, src, mpi.Tag(epoch, mpi.PhaseBcast, mask)), buf, nil)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			dst := (rel + mask + root) % n
			p.Send(c, dst, mpi.Tag(epoch, mpi.PhaseBcast, mask), buf)
		}
	}
}

// BinomialReduce reduces every rank's buffer into root's along the mirror
// of the binomial broadcast tree. buf is overwritten with partial results
// on non-root ranks.
func BinomialReduce(p *mpi.Proc, c *mpi.Comm, root int, buf mpi.Buf, red Reducer) {
	n := c.Size()
	if n == 1 {
		return
	}
	me := c.Rank(p)
	epoch := c.Epoch(p)
	rel := (me - root + n) % n
	// Receive from children (highest mask first, mirroring bcast order),
	// then send to the parent.
	top := 1
	for top < n {
		top <<= 1
	}
	for mask := top >> 1; mask >= 1; mask >>= 1 {
		if rel&(mask-1) == 0 && rel&mask == 0 && rel+mask < n {
			src := (rel + mask + root) % n
			got := p.Recv(c, src, mpi.Tag(epoch, mpi.PhaseReduce, mask))
			red.Reduce(buf, got)
			p.Compute(red.Cost(buf.Len()))
		}
	}
	if rel != 0 {
		mask := 1
		for rel&mask == 0 {
			mask <<= 1
		}
		parent := (rel&^mask + root) % n
		p.Send(c, parent, mpi.Tag(epoch, mpi.PhaseReduce, mask), buf)
	}
}

// PairwiseAlltoall is the flat pairwise-exchange MPI_Alltoall: in step s,
// rank r sends its block for rank (r+s) mod N and receives from (r-s) mod
// N. send and recv both hold N blocks of m bytes.
func PairwiseAlltoall(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	n := c.Size()
	if send.Len() != recv.Len() || send.Len()%n != 0 {
		panic("collectives: alltoall needs equal send/recv of N blocks")
	}
	m := send.Len() / n
	me := c.Rank(p)
	epoch := c.Epoch(p)
	p.LocalCopy(recv.Slice(me*m, m), send.Slice(me*m, m))
	for s := 1; s < n; s++ {
		dst := (me + s) % n
		src := (me - s + n) % n
		tag := mpi.Tag(epoch, mpi.PhaseA2A, s)
		got := p.SendRecv(c, dst, tag, send.Slice(dst*m, m), src, tag)
		recv.Slice(src*m, m).CopyFrom(got)
	}
}
