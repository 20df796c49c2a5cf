package collectives

import (
	"fmt"

	"mha/internal/mpi"
)

// MultiLeaderAllgather is the multi-leader-based allgather of Kandalla et
// al. [14] in its general form: each node's ranks are split into `groups`
// equal groups, each with its own leader; group leaders gather their
// group's blocks, all N*groups leaders run a flat ring allgather of group
// blocks, and every leader then broadcasts the complete result to its
// group through shared memory — phases strictly sequential, as published.
//
// groups == 1 is the single-leader configuration used as the MVAPICH2-X
// stand-in; higher group counts implicitly engage more rails in phase 2
// (several leaders per node drive the NICs concurrently), which is the
// design's original motivation and what the leader-count ablation sweeps.
func MultiLeaderAllgather(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf, groups int) {
	topo := w.Topo()
	c := w.CommWorld()
	checkAllgatherArgs(c, send, recv)
	L := topo.PPN
	if groups < 1 || L%groups != 0 {
		panic(fmt.Sprintf("collectives: %d groups do not divide PPN %d", groups, L))
	}
	m := send.Len()
	grpSize := L / groups
	node := p.Node()
	local := p.Local()
	grp := local / grpSize
	grpLeadLocal := grp * grpSize
	epoch := c.Epoch(p)

	// Group communicator (ranks of this node's group, leader first).
	gc := w.CommNamed(fmt.Sprintf("mlgrp-%d-%d-%d", groups, node, grp), func() []int {
		out := make([]int, grpSize)
		for i := range out {
			out[i] = topo.RankOf(node, grpLeadLocal+i)
		}
		return out
	})

	// Phase 1: gather the group's blocks at the group leader, into the
	// leader's receive buffer at the group's final offset.
	grpBase := (node*L + grpLeadLocal) * m
	var nodeBlock mpi.Buf
	if gc.Rank(p) == 0 {
		nodeBlock = recv.Slice(grpBase, grpSize*m)
	}
	GatherToLeader(p, gc, send, nodeBlock)

	isLeader := gc.Rank(p) == 0

	// Phase 2: flat ring allgather over all N*groups group leaders, with
	// one group block per step. Group leaders are ordered node-major.
	if topo.Nodes*groups > 1 && isLeader {
		lc := w.CommNamed(fmt.Sprintf("mllead-%d", groups), func() []int {
			out := make([]int, 0, topo.Nodes*groups)
			for nd := 0; nd < topo.Nodes; nd++ {
				for g := 0; g < groups; g++ {
					out = append(out, topo.RankOf(nd, g*grpSize))
				}
			}
			return out
		})
		nl := lc.Size()
		me := lc.Rank(p)
		right := (me + 1) % nl
		left := (me - 1 + nl) % nl
		B := grpSize * m
		cur := me
		for s := 0; s < nl-1; s++ {
			tag := mpi.Tag(epoch, mpi.PhaseLeader, s)
			rreq := p.Irecv(lc, left, tag)
			sreq := p.Isend(lc, right, tag, recv.Slice(cur*B, B))
			cur = (me - s - 1 + nl) % nl
			p.WaitInto(rreq, recv.Slice(cur*B, B), nil)
			p.Wait(sreq)
		}
	}

	// Phase 3: each group leader publishes the complete result to its
	// group's shared region; members copy out everything but their own
	// group's final placement is included for simplicity (the published
	// buffer is the whole allgather result).
	if grpSize == 1 {
		return
	}
	shm := p.ShmOpen(fmt.Sprintf("ml-%d-%d-%d", groups, grp, epoch), recv.Len())
	done := shm.Counter("full")
	if isLeader {
		shm.CopyIn(p, 0, recv)
		done.Add(1)
		return
	}
	shm.WaitCounter(p, "full", 1)
	shm.CopyOut(p, 0, recv)
}
