package collectives

import (
	"fmt"

	"mha/internal/mpi"
)

// vOffsets returns the receive-buffer offset of each rank's block and the
// total size for variable counts.
func vOffsets(counts []int) (offs []int, total int) {
	offs = make([]int, len(counts))
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("collectives: negative count %d for rank %d", c, i))
		}
		offs[i] = total
		total += c
	}
	return offs, total
}

// RingAllgatherv is MPI_Allgatherv with the ring algorithm: rank i
// contributes counts[i] bytes and every rank ends with the concatenation
// in comm-rank order. send must have counts[rank] bytes and recv the sum.
func RingAllgatherv(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf, counts []int) {
	n := c.Size()
	if len(counts) != n {
		panic(fmt.Sprintf("collectives: %d counts for %d ranks", len(counts), n))
	}
	me := c.Rank(p)
	if send.Len() != counts[me] {
		panic(fmt.Sprintf("collectives: rank %d sends %dB, counts say %dB", me, send.Len(), counts[me]))
	}
	offs, total := vOffsets(counts)
	if recv.Len() != total {
		panic(fmt.Sprintf("collectives: recv %dB, counts sum to %dB", recv.Len(), total))
	}
	epoch := c.Epoch(p)
	p.LocalCopy(recv.Slice(offs[me], counts[me]), send)
	if n == 1 {
		return
	}
	right := (me + 1) % n
	left := (me - 1 + n) % n
	cur := me
	for s := 0; s < n-1; s++ {
		tag := mpi.Tag(epoch, mpi.PhaseAGV, s)
		rreq := p.Irecv(c, left, tag)
		sreq := p.Isend(c, right, tag, recv.Slice(offs[cur], counts[cur]))
		cur = (cur - 1 + n) % n
		p.WaitInto(rreq, recv.Slice(offs[cur], counts[cur]), nil)
		p.Wait(sreq)
	}
}
