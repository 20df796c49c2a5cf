package collectives

import (
	"mha/internal/mpi"
)

const phaseIAG = 31 // last free phase id (see the other phase blocks)

// AllgatherRequest is the handle of an in-flight nonblocking allgather
// (the MPI_Iallgather pattern). Complete it with Wait; the caller may
// compute between Start and Wait, overlapping communication.
type AllgatherRequest struct {
	p     *mpi.Proc
	recvs []iagPending
	sends []*mpi.Request
	recv  mpi.Buf
	done  bool
}

type iagPending struct {
	req *mpi.Request
	off int
	n   int
}

// IAllgatherDirect starts a nonblocking allgather using the dissemination
// (Direct Spread) schedule — the only conventional schedule with no
// forwarding dependencies, so every transfer can be posted up front.
// Intra-node copies still occupy the caller's CPU (they queue on it and
// run before any later Compute, as on real hardware); inter-node
// transfers proceed entirely in the background.
func IAllgatherDirect(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) *AllgatherRequest {
	checkAllgatherArgs(c, send, recv)
	m := send.Len()
	n := c.Size()
	me := c.Rank(p)
	epoch := c.Epoch(p)
	r := &AllgatherRequest{p: p, recv: recv}
	p.LocalCopy(recv.Slice(me*m, m), send)
	for s := 1; s < n; s++ {
		src := (me - s + n) % n
		r.recvs = append(r.recvs, iagPending{
			req: p.Irecv(c, src, mpi.Tag(epoch, phaseIAG, s)),
			off: src * m,
			n:   m,
		})
	}
	for s := 1; s < n; s++ {
		dst := (me + s) % n
		r.sends = append(r.sends, p.Isend(c, dst, mpi.Tag(epoch, phaseIAG, s), send))
	}
	return r
}

// Wait completes the allgather: blocks until every block has arrived and
// every outgoing transfer has left. Wait is idempotent.
func (r *AllgatherRequest) Wait() {
	if r.done {
		return
	}
	r.done = true
	for _, pr := range r.recvs {
		r.p.WaitInto(pr.req, r.recv.Slice(pr.off, pr.n), nil)
	}
	for _, sr := range r.sends {
		r.p.Wait(sr)
	}
}
