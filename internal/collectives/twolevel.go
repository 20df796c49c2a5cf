package collectives

import (
	"fmt"
	"math/bits"

	"mha/internal/mpi"
)

// LeaderAlg selects the inter-leader data-exchange algorithm for phase 2 of
// a hierarchical allgather.
type LeaderAlg int

const (
	// LeaderRing runs N-1 nearest-neighbor steps of one node-block each.
	// Constant step size gives the best phase-2/phase-3 overlap (Figure 7).
	LeaderRing LeaderAlg = iota
	// LeaderRD runs log2(N) recursive-doubling steps with doubling block
	// sizes; better for small messages, worse overlap for large ones.
	LeaderRD
)

func (a LeaderAlg) String() string {
	switch a {
	case LeaderRing:
		return "ring"
	case LeaderRD:
		return "rd"
	default:
		return fmt.Sprintf("LeaderAlg(%d)", int(a))
	}
}

// HierarchicalConfig selects the three phases of a two-level allgather.
type HierarchicalConfig struct {
	// NodeAllgather, when non-nil, is used as phase 1 so that every rank of
	// a node ends up holding the whole node block (the paper's design uses
	// MHA-intra here). When nil, phase 1 is a point-to-point gather to the
	// node leader only (the classic leader-based design).
	NodeAllgather func(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf)
	// LeaderAlg is the phase-2 algorithm.
	LeaderAlg LeaderAlg
	// Overlap, when true, streams each phase-2 chunk through shared memory
	// as it arrives (the paper's phase-3 overlap); when false, node-level
	// distribution starts only after phase 2 completes (Kandalla-style).
	Overlap bool
}

// HierarchicalAllgather runs a two-level allgather over the world
// communicator of w: phase 1 node-level aggregation, phase 2 inter-leader
// exchange, phase 3 node-level distribution through shared memory. The
// world must use block rank layout so that node blocks are contiguous in
// the receive buffer.
func HierarchicalAllgather(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf, cfg HierarchicalConfig) {
	c := w.CommWorld()
	checkAllgatherArgs(c, send, recv)
	m := send.Len()
	topo := w.Topo()
	L := topo.PPN
	N := topo.Nodes
	B := L * m // node-block size
	node := p.Node()
	nodeComm := w.NodeComm(node)
	leaderComm := w.LeaderComm()
	epoch := c.Epoch(p)

	// ---- Phase 1: node-level aggregation ----
	nodeBase := topo.RankOf(node, 0) * m
	if cfg.NodeAllgather != nil {
		cfg.NodeAllgather(p, nodeComm, send, recv.Slice(nodeBase, B))
	} else {
		gatherToLeader(p, nodeComm, epoch, send, recv.Slice(nodeBase, B))
	}
	if N == 1 {
		// Single node: with a gather-style phase 1 the non-leaders still
		// need the node block; broadcast it through shared memory.
		if cfg.NodeAllgather == nil && L > 1 {
			shm := p.ShmOpen(shmName(epoch), B)
			avail := shm.Counter("avail")
			if p.IsLeader() {
				shm.CopyIn(p, 0, recv.Slice(nodeBase, B))
				avail.Add(1)
			} else {
				shm.WaitCounter(p, "avail", 1)
				shm.CopyOut(p, 0, recv.Slice(nodeBase, B))
			}
		}
		return
	}

	shm := p.ShmOpen(shmName(epoch), N*B)
	// avail counts completed copy-ins, in the deterministic arrival order
	// that both leader and peers compute from the phase-2 algorithm.
	const availName = "avail"

	// When phase 1 already gave every rank its node block, the leader can
	// skip publishing it into shared memory (the availability slot is
	// granted for free and the peers skip the copy-out).
	skipOwn := cfg.NodeAllgather != nil

	if p.IsLeader() {
		switch cfg.LeaderAlg {
		case LeaderRing:
			leaderRing(p, leaderComm, epoch, recv, m*L, node, shm, availName, cfg.Overlap, skipOwn)
		case LeaderRD:
			leaderRD(p, leaderComm, epoch, recv, m*L, node, shm, availName, cfg.Overlap, skipOwn)
		default:
			panic("collectives: unknown leader algorithm")
		}
		return
	}
	if L == 1 {
		return
	}

	// ---- Phase 3 (non-leaders): copy blocks out as they become available.
	haveOwnBlock := cfg.NodeAllgather != nil
	order := arrivalOrder(cfg.LeaderAlg, N, node)
	for k := 0; k < order.groups(); k++ {
		shm.WaitCounter(p, availName, int64(k+1))
		lo, ln := order.group(k)
		for nb := lo; nb < lo+ln; nb++ {
			if haveOwnBlock && nb == node {
				continue
			}
			off := nb * B
			shm.CopyOut(p, off, recv.Slice(off, B))
		}
	}
}

func shmName(epoch int) string { return fmt.Sprintf("hier-ag-%d", epoch) }

// GatherToLeader collects every rank's m-byte block at the leader (comm
// rank 0) of a single-node communicator, leader-pull style. Non-leaders
// may pass a zero Buf for nodeBlock.
func GatherToLeader(p *mpi.Proc, c *mpi.Comm, send, nodeBlock mpi.Buf) {
	gatherToLeader(p, c, c.Epoch(p), send, nodeBlock)
}

// gatherToLeader collects every rank's block at the node leader. CMA
// gathers are leader-driven: each non-leader only exposes its buffer (a
// zero-cost pointer handoff) and the leader's CPU performs the L-1
// cross-address-space pulls, serialized — which is exactly the phase-1
// bottleneck the MHA-intra design relieves by putting every rank's CPU and
// the idle adapters to work instead.
func gatherToLeader(p *mpi.Proc, nodeComm *mpi.Comm, epoch int, send, nodeBlock mpi.Buf) {
	m := send.Len()
	l := nodeComm.Rank(p)
	if l != 0 {
		p.Send(nodeComm, 0, mpi.Tag(epoch, mpi.PhaseGather, l), send, mpi.ByRef())
		return
	}
	p.LocalCopy(nodeBlock.Slice(0, m), send)
	for peer := 1; peer < nodeComm.Size(); peer++ {
		p.WaitInto(p.Irecv(nodeComm, peer, mpi.Tag(epoch, mpi.PhaseGather, peer)), nodeBlock.Slice(peer*m, m), nil)
		p.ChargeCMA(m)
	}
}

// arrivals is, for phase 2 of one algorithm on n nodes as seen from node,
// the sequence of node-block groups in the order the node leader copies
// them into shared memory. A group is a run of adjacent node blocks — one
// block a ring step, the sibling subtree a recursive-doubling step — so it
// is computed from its index and nothing is built: every non-leader of every
// node walks the sequence once a collective.
type arrivals struct {
	ring    bool
	n, node int
}

// arrivalOrder returns the order in which phase 2 of alg delivers. A
// non-power-of-two node count falls back to ring (see leaderRD).
func arrivalOrder(alg LeaderAlg, n, node int) arrivals {
	return arrivals{ring: alg == LeaderRing || n&(n-1) != 0, n: n, node: node}
}

// groups returns how many groups arrive, the node's own block included.
func (a arrivals) groups() int {
	if a.ring {
		return a.n
	}
	return bits.Len(uint(a.n)) // 1 + log2(n)
}

// group returns group k as the node blocks [lo, lo+ln). Group 0 is always
// the node's own block; group k>0 lands when the avail counter reaches k+1.
func (a arrivals) group(k int) (lo, ln int) {
	switch {
	case k == 0:
		return a.node, 1
	case a.ring:
		return (a.node - k + a.n) % a.n, 1
	}
	dist := 1 << (k - 1)
	return (a.node &^ (dist - 1)) ^ dist, dist
}

// leaderRing is phase 2 with the ring algorithm plus, optionally, the
// overlapped phase-3 copy-ins: the copy of chunk i into shared memory runs
// while the transfer of chunk i+1 is already on the wire.
func leaderRing(p *mpi.Proc, lc *mpi.Comm, epoch int, recv mpi.Buf, B, node int, shm *mpi.Shm, avail string, overlap, skipOwn bool) {
	n := lc.Size()
	me := lc.Rank(p)
	right := (me + 1) % n
	left := (me - 1 + n) % n
	availC := shm.Counter(avail)

	cur := node // node whose block we forward next
	for s := 0; s < n-1; s++ {
		tag := mpi.Tag(epoch, mpi.PhaseLeader, s)
		rreq := p.Irecv(lc, left, tag)
		sreq := p.Isend(lc, right, tag, recv.Slice(cur*B, B))
		if overlap {
			// While the wire is busy, publish the block we already hold
			// (own block at s==0, the previously received one after).
			if s > 0 || !skipOwn {
				shm.CopyIn(p, cur*B, recv.Slice(cur*B, B))
			}
			availC.Add(1)
		}
		cur = (node - s - 1 + n) % n
		p.WaitInto(rreq, recv.Slice(cur*B, B), nil)
		p.Wait(sreq)
	}
	if overlap {
		// Tail: the final block still has to be published after arrival.
		shm.CopyIn(p, cur*B, recv.Slice(cur*B, B))
		availC.Add(1)
		return
	}
	// Non-overlapped: publish everything only now, in arrival order.
	order := arrivalOrder(LeaderRing, n, node)
	for k := 0; k < order.groups(); k++ {
		if nb, _ := order.group(k); k > 0 || !skipOwn {
			shm.CopyIn(p, nb*B, recv.Slice(nb*B, B))
		}
		availC.Add(1)
	}
}

// leaderRD is phase 2 with recursive doubling. Each step exchanges the
// whole accumulated block range, which doubles every step; the overlap
// variant publishes each step's newly received range while the next
// (larger) transfer is in flight. Non-power-of-two node counts fall back
// to the ring exchange.
func leaderRD(p *mpi.Proc, lc *mpi.Comm, epoch int, recv mpi.Buf, B, node int, shm *mpi.Shm, avail string, overlap, skipOwn bool) {
	n := lc.Size()
	if n&(n-1) != 0 {
		leaderRing(p, lc, epoch, recv, B, node, shm, avail, overlap, skipOwn)
		return
	}
	me := lc.Rank(p)
	availC := shm.Counter(avail)

	type rng struct{ start, len int }
	pending := rng{node, 1} // own block: published while step 0 is in flight
	pendingOwn := true
	base := me
	for dist := 1; dist < n; dist *= 2 {
		peer := me ^ dist
		base = base &^ (dist - 1)
		tag := mpi.Tag(epoch, mpi.PhaseLeader, dist)
		own := recv.Slice(base*B, dist*B)
		rreq := p.Irecv(lc, peer, tag)
		sreq := p.Isend(lc, peer, tag, own)
		if overlap {
			if !(pendingOwn && skipOwn) {
				shm.CopyIn(p, pending.start*B, recv.Slice(pending.start*B, pending.len*B))
			}
			availC.Add(1)
		}
		sibBase := base ^ dist
		p.WaitInto(rreq, recv.Slice(sibBase*B, dist*B), nil)
		p.Wait(sreq)
		pending = rng{sibBase, dist}
		pendingOwn = false
	}
	if overlap {
		shm.CopyIn(p, pending.start*B, recv.Slice(pending.start*B, pending.len*B))
		availC.Add(1)
		return
	}
	order := arrivalOrder(LeaderRD, n, node)
	for k := 0; k < order.groups(); k++ {
		if lo, ln := order.group(k); k > 0 || !skipOwn {
			shm.CopyIn(p, lo*B, recv.Slice(lo*B, ln*B))
		}
		availC.Add(1)
	}
}

// KandallaAllgather is the multi-leader-based allgather of Kandalla et al.
// with a single leader per node and strictly sequential phases — the
// state-of-the-art two-level design the paper improves on. It stands in
// for MVAPICH2-X's large-message allgather in the evaluation.
func KandallaAllgather(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	HierarchicalAllgather(p, w, send, recv, HierarchicalConfig{
		LeaderAlg: LeaderRing,
		Overlap:   false,
	})
}

// MamidalaAllgather is the shared-memory + RDMA allgather of Mamidala et
// al.: a single-leader design whose inter-leader exchange is recursive
// doubling with network/shared-memory-copy overlap. The paper cites it as
// the prior overlapped design that is restricted to RD in phase 2.
func MamidalaAllgather(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	HierarchicalAllgather(p, w, send, recv, HierarchicalConfig{
		LeaderAlg: LeaderRD,
		Overlap:   true,
	})
}
