package collectives

import (
	"fmt"

	"mha/internal/mpi"
)

const (
	phaseGatherV  = 14
	phaseScatterV = 15
)

// LinearGatherv is MPI_Gatherv: rank r contributes counts[r] bytes and
// root receives the concatenation in comm-rank order. Non-root ranks may
// pass a zero Buf for recv.
func LinearGatherv(p *mpi.Proc, c *mpi.Comm, root int, send, recv mpi.Buf, counts []int) {
	n := c.Size()
	if len(counts) != n {
		panic(fmt.Sprintf("collectives: %d counts for %d ranks", len(counts), n))
	}
	me := c.Rank(p)
	if send.Len() != counts[me] {
		panic(fmt.Sprintf("collectives: rank %d sends %dB, counts say %dB", me, send.Len(), counts[me]))
	}
	epoch := c.Epoch(p)
	if me != root {
		if counts[me] > 0 {
			p.Send(c, root, mpi.Tag(epoch, phaseGatherV, me), send)
		}
		return
	}
	offs, total := vOffsets(counts)
	if recv.Len() != total {
		panic(fmt.Sprintf("collectives: gatherv recv %dB, counts sum to %dB", recv.Len(), total))
	}
	if counts[me] > 0 {
		p.LocalCopy(recv.Slice(offs[me], counts[me]), send)
	}
	for r := 0; r < n; r++ {
		if r == root || counts[r] == 0 {
			continue
		}
		p.WaitInto(p.Irecv(c, r, mpi.Tag(epoch, phaseGatherV, r)), recv.Slice(offs[r], counts[r]), nil)
	}
}

// LinearScatterv is MPI_Scatterv: root distributes counts[r] bytes to each
// rank r from its concatenated send buffer. Non-root ranks may pass a zero
// Buf for send.
func LinearScatterv(p *mpi.Proc, c *mpi.Comm, root int, send, recv mpi.Buf, counts []int) {
	n := c.Size()
	if len(counts) != n {
		panic(fmt.Sprintf("collectives: %d counts for %d ranks", len(counts), n))
	}
	me := c.Rank(p)
	if recv.Len() != counts[me] {
		panic(fmt.Sprintf("collectives: rank %d receives %dB, counts say %dB", me, recv.Len(), counts[me]))
	}
	epoch := c.Epoch(p)
	if me != root {
		if counts[me] > 0 {
			p.WaitInto(p.Irecv(c, root, mpi.Tag(epoch, phaseScatterV, me)), recv, nil)
		}
		return
	}
	offs, total := vOffsets(counts)
	if send.Len() != total {
		panic(fmt.Sprintf("collectives: scatterv send %dB, counts sum to %dB", send.Len(), total))
	}
	for r := 0; r < n; r++ {
		if r == root || counts[r] == 0 {
			continue
		}
		p.Send(c, r, mpi.Tag(epoch, phaseScatterV, r), send.Slice(offs[r], counts[r]))
	}
	if counts[me] > 0 {
		p.LocalCopy(recv, send.Slice(offs[me], counts[me]))
	}
}
