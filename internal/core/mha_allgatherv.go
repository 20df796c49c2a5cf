package core

import (
	"fmt"

	"mha/internal/collectives"
	"mha/internal/mpi"
)

// MHAAllgatherv is the hierarchical, multi-rail-aware MPI_Allgatherv:
// rank r contributes counts[r] bytes (world-rank indexed). The design is
// the MHA-inter template with variable block sizes — leader-pull node
// gather, ring inter-leader exchange of whole (variable) node blocks
// striped across all rails, and the overlapped shared-memory distribution
// with availability counters.
func MHAAllgatherv(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf, counts []int) {
	topo := w.Topo()
	c := w.CommWorld()
	n := topo.Size()
	if len(counts) != n {
		panic(fmt.Sprintf("core: %d counts for %d ranks", len(counts), n))
	}
	me := p.Rank()
	if send.Len() != counts[me] {
		panic(fmt.Sprintf("core: rank %d sends %dB, counts say %dB", me, send.Len(), counts[me]))
	}
	offs := make([]int, n)
	total := 0
	for i, cnt := range counts {
		offs[i] = total
		total += cnt
	}
	if recv.Len() != total {
		panic(fmt.Sprintf("core: recv %dB, counts sum to %dB", recv.Len(), total))
	}
	N := topo.Nodes
	L := topo.PPN
	node := p.Node()
	epoch := c.Epoch(p)

	// Per-node block geometry (contiguous because of the block layout).
	nodeOff := make([]int, N)
	nodeLen := make([]int, N)
	for nd := 0; nd < N; nd++ {
		first := topo.RankOf(nd, 0)
		nodeOff[nd] = offs[first]
		for l := 0; l < L; l++ {
			nodeLen[nd] += counts[topo.RankOf(nd, l)]
		}
	}

	// Phase 1: leader-pull gather of the node block.
	if !p.IsLeader() {
		p.Send(c, topo.LeaderOf(node), mpi.Tag(epoch, mpi.PhaseVGather, p.Local()), send, mpi.ByRef())
	} else {
		p.LocalCopy(recv.Slice(offs[me], counts[me]), send)
		for l := 1; l < L; l++ {
			src := topo.RankOf(node, l)
			p.WaitInto(p.Irecv(c, src, mpi.Tag(epoch, mpi.PhaseVGather, l)), recv.Slice(offs[src], counts[src]), nil)
			p.ChargeCMA(counts[src])
		}
	}

	if N == 1 {
		// Distribute the node block to the non-leaders via shared memory.
		if L == 1 {
			return
		}
		shm := p.ShmOpen(shmvName(epoch), total)
		avail := shm.Counter("avail")
		if p.IsLeader() {
			shm.CopyIn(p, 0, recv)
			avail.Add(1)
			return
		}
		shm.WaitCounter(p, "avail", 1)
		shm.CopyOut(p, 0, recv)
		return
	}

	shm := p.ShmOpen(shmvName(epoch), total)
	avail := shm.Counter("avail")

	if p.IsLeader() {
		lc := w.LeaderComm()
		right := (node + 1) % N
		left := (node - 1 + N) % N
		cur := node
		for s := 0; s < N-1; s++ {
			tag := mpi.Tag(epoch, mpi.PhaseVLeader, s)
			rreq := p.Irecv(lc, left, tag)
			sreq := p.Isend(lc, right, tag, recv.Slice(nodeOff[cur], nodeLen[cur]))
			// Publish the block already held while the wire is busy.
			if nodeLen[cur] > 0 {
				shm.CopyIn(p, nodeOff[cur], recv.Slice(nodeOff[cur], nodeLen[cur]))
			}
			avail.Add(1)
			cur = (node - s - 1 + N) % N
			p.WaitInto(rreq, recv.Slice(nodeOff[cur], nodeLen[cur]), nil)
			p.Wait(sreq)
		}
		if nodeLen[cur] > 0 {
			shm.CopyIn(p, nodeOff[cur], recv.Slice(nodeOff[cur], nodeLen[cur]))
		}
		avail.Add(1)
		return
	}
	if L == 1 {
		return
	}
	// Non-leaders: blocks arrive in ring order starting with the own node.
	for k := 0; k < N; k++ {
		shm.WaitCounter(p, "avail", int64(k+1))
		nd := (node - k + N) % N
		if nodeLen[nd] == 0 {
			continue
		}
		shm.CopyOut(p, nodeOff[nd], recv.Slice(nodeOff[nd], nodeLen[nd]))
	}
}

func shmvName(epoch int) string { return fmt.Sprintf("mha-agv-%d", epoch) }

// FlatAllgatherv exposes the ring baseline under the same world-oriented
// signature for side-by-side comparisons.
func FlatAllgatherv(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf, counts []int) {
	collectives.RingAllgatherv(p, w.CommWorld(), send, recv, counts)
}
