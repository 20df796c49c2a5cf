package core

// The paper's future work ("we plan to address other collectives"): the
// same three-phase hierarchical, multi-rail-aware template applied to
// Bcast, Reduce and Alltoall. Each follows the MHA-inter recipe — single
// leader per node, inter-leader traffic striped across every rail,
// node-level distribution through shared-memory chunk counters
// overlapped with the network phase — and each is verified against its
// flat baseline's oracle in the tests.

import (
	"fmt"

	"mha/internal/collectives"
	"mha/internal/mpi"
)

// bcastChunk is the pipeline granularity of the shared-memory broadcast
// stage: small enough to overlap, large enough to amortize alpha_L.
const bcastChunk = 256 << 10

// MHABcast broadcasts root's buffer with the hierarchical template:
// root -> its node leader, binomial tree over node leaders (striped over
// all rails), and a chunked shared-memory pipeline inside every node so
// peers start copying while later chunks are still arriving at the NICs
// of other leaders.
func MHABcast(p *mpi.Proc, w *mpi.World, root int, buf mpi.Buf) {
	topo := w.Topo()
	c := w.CommWorld()
	epoch := c.Epoch(p)
	me := p.Rank()
	rootNode := topo.NodeOf(root)
	n := buf.Len()

	// Phase A: move the payload from root to its node's leader.
	if me == root && !p.IsLeader() {
		p.Send(c, topo.LeaderOf(rootNode), mpi.Tag(epoch, mpi.PhaseMBcast, 1<<12), buf)
	}
	if p.IsLeader() && p.Node() == rootNode && me != root {
		p.WaitInto(p.Irecv(c, root, mpi.Tag(epoch, mpi.PhaseMBcast, 1<<12)), buf, nil)
	}

	// Phase B: binomial broadcast over the leaders (world ranks of local 0).
	if p.IsLeader() && topo.Nodes > 1 {
		collectives.BinomialBcast(p, w.LeaderComm(), rootNode, buf)
	}

	// Phase C: chunked shared-memory distribution within each node.
	if topo.PPN == 1 {
		return
	}
	shm := p.ShmOpen(fmt.Sprintf("mha-bcast-%d", epoch), n)
	avail := shm.Counter("chunks")
	chunks := (n + bcastChunk - 1) / bcastChunk
	if p.IsLeader() {
		for k := 0; k < chunks; k++ {
			off := k * bcastChunk
			ln := min(bcastChunk, n-off)
			shm.CopyIn(p, off, buf.Slice(off, ln))
			avail.Add(1)
		}
		return
	}
	if me == root {
		return // root already holds the data
	}
	for k := 0; k < chunks; k++ {
		shm.WaitCounter(p, "chunks", int64(k+1))
		off := k * bcastChunk
		ln := min(bcastChunk, n-off)
		shm.CopyOut(p, off, buf.Slice(off, ln))
	}
}

// MHAReduce reduces every rank's buffer into root's: an intra-node
// binomial reduce over CMA first (so only one rank per node talks to the
// network), then a binomial reduce over the leaders with every message
// striped across the rails, then leader -> root if root is not a leader.
func MHAReduce(p *mpi.Proc, w *mpi.World, root int, buf mpi.Buf, red collectives.Reducer) {
	topo := w.Topo()
	c := w.CommWorld()
	epoch := c.Epoch(p)
	rootNode := topo.NodeOf(root)

	// Phase A: node-level reduction to the node leader.
	collectives.BinomialReduce(p, w.NodeComm(p.Node()), 0, buf, red)

	// Phase B: inter-leader reduction to the root's node leader.
	if p.IsLeader() && topo.Nodes > 1 {
		collectives.BinomialReduce(p, w.LeaderComm(), rootNode, buf, red)
	}

	// Phase C: hand the result to root if it is not its node's leader.
	if !topo.IsLeader(root) {
		lead := topo.LeaderOf(rootNode)
		if p.Rank() == lead {
			p.Send(c, root, mpi.Tag(epoch, mpi.PhaseMReduce, 1<<12), buf)
		}
		if p.Rank() == root {
			p.WaitInto(p.Irecv(c, lead, mpi.Tag(epoch, mpi.PhaseMReduce, 1<<12)), buf, nil)
		}
	}
}

// MHAAlltoall is the hierarchical alltoall: ranks stage their slices into
// a per-destination-node shared region, leaders exchange L*L-sized node-
// pair blocks pairwise with striping, and arriving blocks stream out to
// the destination ranks through availability counters, overlapped with
// the remaining exchanges. send and recv hold one m-byte block per world
// rank.
func MHAAlltoall(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	topo := w.Topo()
	c := w.CommWorld()
	if send.Len() != recv.Len() || send.Len()%topo.Size() != 0 {
		panic("core: alltoall needs equal send/recv of one block per rank")
	}
	epoch := c.Epoch(p)
	m := send.Len() / topo.Size()
	L := topo.PPN
	N := topo.Nodes
	node := p.Node()
	local := p.Local()
	pair := L * L * m // bytes exchanged per node pair

	if N == 1 {
		collectives.PairwiseAlltoall(p, c, send, recv)
		return
	}

	// Staging region: for each destination node, L*L slices laid out as
	// [srcLocal][dstLocal]. The arrival region mirrors it per source node.
	out := p.ShmOpen(fmt.Sprintf("mha-a2a-out-%d", epoch), N*pair)
	in := p.ShmOpen(fmt.Sprintf("mha-a2a-in-%d", epoch), N*pair)
	staged := out.Counter("staged")
	arrived := in.Counter("arrived")

	// Phase 1: every rank stages its slice for every destination rank.
	for dn := 0; dn < N; dn++ {
		for dl := 0; dl < L; dl++ {
			dst := topo.RankOf(dn, dl)
			off := dn*pair + (local*L+dl)*m
			out.CopyIn(p, off, send.Slice(dst*m, m))
		}
	}
	staged.Add(1)

	// Local slices don't cross the network: once every node rank has
	// staged, pull the slices the on-node peers addressed to this rank.
	out.WaitCounter(p, "staged", int64(L))
	for sl := 0; sl < L; sl++ {
		src := topo.RankOf(node, sl)
		off := node*pair + (sl*L+local)*m
		out.CopyOut(p, off, recv.Slice(src*m, m))
	}

	if p.IsLeader() {
		lc := w.LeaderComm()
		// Pairwise exchange of node-pair blocks; each arrival is
		// published immediately so peers overlap their copy-out.
		reqs := make([]*mpi.Request, 0, N-1)
		order := make([]int, 0, N-1)
		for s := 1; s < N; s++ {
			srcN := (node - s + N) % N
			reqs = append(reqs, p.Irecv(lc, srcN, mpi.Tag(epoch, mpi.PhaseMA2A, s)))
			order = append(order, srcN)
		}
		sends := make([]*mpi.Request, 0, N-1)
		for s := 1; s < N; s++ {
			dstN := (node + s) % N
			blk := out.Region(dstN*pair, pair)
			sends = append(sends, p.Isend(lc, dstN, mpi.Tag(epoch, mpi.PhaseMA2A, s), blk))
		}
		for i, rq := range reqs {
			got := p.Wait(rq)
			in.CopyIn(p, order[i]*pair, got)
			arrived.Add(1)
		}
		// Leader's own incoming slices.
		for _, srcN := range order {
			for sl := 0; sl < L; sl++ {
				src := topo.RankOf(srcN, sl)
				recv.Slice(src*m, m).CopyFrom(in.Region(srcN*pair+(sl*L+local)*m, m))
			}
			p.ChargeCopy(L * m)
		}
		// Drain the send requests so the leader observes its transfers
		// complete before leaving the epoch (waitpair contract; by now
		// every peer has received, so these waits are effectively free).
		p.Waitall(sends...)
		return
	}

	// Non-leaders: copy each arriving node-pair block's slices out as the
	// counter advances.
	for k := 1; k < N; k++ {
		in.WaitCounter(p, "arrived", int64(k))
		srcN := (node - k + N) % N
		for sl := 0; sl < L; sl++ {
			src := topo.RankOf(srcN, sl)
			off := srcN*pair + (sl*L+local)*m
			dst := recv.Slice(src*m, m)
			in.CopyOut(p, off, dst)
		}
	}
}
