// Package core implements the paper's contribution: the Multi-HCA-Aware
// (MHA) Allgather designs.
//
//   - MHAIntraAllgather (Section 3.1) extends the Direct-Spread algorithm
//     with HCA offload: each rank hands a tuned fraction d of its L-1
//     intra-node transfers to the otherwise idle network adapters, so CPUs
//     and NICs finish together (Equation 1).
//   - MHAInterAllgather (Section 3.2) is the hierarchical design: phase 1
//     aggregates the node block with MHA-intra, phase 2 exchanges node
//     blocks between single per-node leaders with Recursive Doubling or
//     Ring striped over every rail, and phase 3 streams each arriving block
//     through shared memory, overlapped with phase 2.
//   - MHAAllreduce (Section 5.4) plugs the MHA allgather into the allgather
//     phase of the bandwidth-optimal ring allreduce.
package core

import (
	"math"

	"mha/internal/mpi"
	"mha/internal/perfmodel"
)

// AutoOffload asks MHAIntraAllgatherD to derive the offload from
// Equation (1).
const AutoOffload = -1

// MHAIntraAllgather is the multi-HCA-aware intra-node allgather of
// Section 3.1 with the analytic offload of Equation (1).
func MHAIntraAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	MHAIntraAllgatherD(p, c, send, recv, AutoOffload)
}

// MHAIntraAllgatherD runs MHA-intra with an explicit offload d (in
// transfers per rank, fractional; AutoOffload derives it from the model).
// All ranks of c must pass the same d. The communicator must live entirely
// on one node; the world communicator of a single-node job qualifies, as
// does any node communicator.
//
// Structure per rank, following Figure 4b: the offloaded transfers are
// posted first (nonblocking — the NICs work in the background), then the
// CPU performs its share of direct-spread steps, then everything is
// awaited. A fractional d splits one message between CPU and NIC.
func MHAIntraAllgatherD(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf, d float64) {
	if recv.Len() != send.Len()*c.Size() {
		panic("core: allgather buffer size mismatch")
	}
	m := send.Len()
	L := c.Size()
	me := c.Rank(p)
	epoch := c.Epoch(p)
	if L == 1 {
		p.LocalCopy(recv.Slice(me*m, m), send)
		return
	}
	if d < 0 {
		// Equation (1) with L = the communicator's size (a whole node, or
		// one NUMA socket in the 3-level design). Under a fault schedule,
		// plan the offload for the node's steady surviving rail count —
		// every rank of the node derives the same count regardless of when
		// it asks, so the byte-exact plans still agree.
		// Project the cluster down to this node, with its own usable rail
		// count.
		t := p.World().Topo().SingleNode(L)
		t.HCAs = p.World().Topo().HCAsOf(p.Node())
		if h := p.World().Health(); h.Faulty() {
			t.HCAs = h.PlanRails(p.Node())
		}
		if t.HCAs == 0 {
			d = 0 // every rail is dead for the whole run: pure CPU spread
		} else {
			d = perfmodel.New(p.World().Params(), t).OffloadD(m)
		}
	}
	if max := float64(L - 1); d > max {
		d = max
	}
	plan := offloadPlan(L, m, d)

	// Post every receive up front; they hold no resources.
	type pending struct {
		req *mpi.Request
		src int
		off int // offset within the source block (for split pieces)
		n   int
	}
	var recvs []pending
	for s := 1; s < L; s++ {
		src := (me - s + L) % L
		cpuN, hcaN := plan[s].cpu, plan[s].hca
		if cpuN > 0 {
			recvs = append(recvs, pending{p.Irecv(c, src, mpi.Tag(epoch, mpi.PhaseIntraCPU, s)), src, 0, cpuN})
		}
		if hcaN > 0 {
			recvs = append(recvs, pending{p.Irecv(c, src, mpi.Tag(epoch, mpi.PhaseIntraHCA, s)), src, cpuN, hcaN})
		}
	}

	// Offloaded sends: post them all now; rails queue behind one another
	// and run concurrently with the CPU's copies below.
	var sends []*mpi.Request
	for s := 1; s < L; s++ {
		if n := plan[s].hca; n > 0 {
			dst := (me + s) % L
			off := plan[s].cpu
			sends = append(sends,
				p.Isend(c, dst, mpi.Tag(epoch, mpi.PhaseIntraHCA, s), send.Slice(off, n), mpi.ViaHCA()))
		}
	}

	// CPU share: first the send-to-receive self copy (the adapters are
	// already working), then the classic direct-spread order, one blocking
	// CMA copy at a time (the rank's CPU can only run one copy anyway).
	p.LocalCopy(recv.Slice(me*m, m), send)
	for s := 1; s < L; s++ {
		if n := plan[s].cpu; n > 0 {
			dst := (me + s) % L
			p.Send(c, dst, mpi.Tag(epoch, mpi.PhaseIntraCPU, s), send.Slice(0, n))
		}
	}

	for _, pr := range recvs {
		p.WaitInto(pr.req, recv.Slice(pr.src*m+pr.off, pr.n), nil)
	}
	for _, sr := range sends {
		p.Wait(sr)
	}
}

// split describes how one step's message divides between CPU and HCAs.
type split struct{ cpu, hca int }

// offloadPlan assigns each direct-spread step s=1..L-1 to the CPU, the
// HCAs, or a byte split of both, so that the total HCA share equals d
// messages. The plan is a pure function of (L, m, d), so sender and
// receiver always agree. The last floor(d) steps offload whole messages
// (they are the "farthest" peers); the step before them carries the
// fractional remainder.
func offloadPlan(L, m int, d float64) []split {
	plan := make([]split, L)
	whole := int(d)
	frac := d - float64(whole)
	if whole > L-1 {
		whole, frac = L-1, 0
	}
	for s := 1; s < L; s++ {
		plan[s] = split{cpu: m}
	}
	for k := 0; k < whole; k++ {
		plan[L-1-k] = split{hca: m}
	}
	if frac > 0 && whole < L-1 {
		hcaN := int(math.Round(frac * float64(m)))
		if hcaN > m {
			hcaN = m
		}
		plan[L-1-whole] = split{cpu: m - hcaN, hca: hcaN}
	}
	return plan
}

// NodeAllgather adapts MHA-intra to the collectives.HierarchicalConfig
// phase-1 signature.
func NodeAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	MHAIntraAllgather(p, c, send, recv)
}
