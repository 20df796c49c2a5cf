package collectives

import "mha/internal/mpi"

// This file implements the locality-aware allgather family: flat
// communicator-based algorithms that discover which ranks share a node and
// route the bulk of the traffic so that each inter-node link carries every
// byte at most once. Unlike HierarchicalAllgather they assume nothing about
// the rank layout — block, cyclic, custom and sub-communicators all work —
// because the node groups are derived from the communicator membership
// itself. On oversubscribed fabrics (internal/fabric) this is what keeps
// the thin trunk links off the critical path: the conventional flat
// algorithms cross them once per rank pair, the locality family once per
// node pair.

// localityGroups partitions the communicator's ranks by the node hosting
// them. Groups are ordered by node id and each group lists its member comm
// ranks in ascending order, so every rank derives the identical partition
// without communication. The second result maps each comm rank to its
// (group, slot) position.
func localityGroups(p *mpi.Proc, c *mpi.Comm) (groups [][]int, groupOf, slotOf []int) {
	topo := p.World().Topo()
	n := c.Size()
	byNode := make([][]int, topo.Nodes)
	for cr := 0; cr < n; cr++ {
		nd := topo.NodeOf(c.WorldRank(cr))
		byNode[nd] = append(byNode[nd], cr)
	}
	groupOf = make([]int, n)
	slotOf = make([]int, n)
	for nd := 0; nd < topo.Nodes; nd++ {
		if len(byNode[nd]) == 0 {
			continue
		}
		g := len(groups)
		groups = append(groups, byNode[nd])
		for j, cr := range byNode[nd] {
			groupOf[cr] = g
			slotOf[cr] = j
		}
	}
	return groups, groupOf, slotOf
}

// localityLeaderAlg is the shape shared by the inter-group exchanges of the
// three leader-based variants: given the leader's staging state it must
// leave every group's block in tmp at its natural offset (tmp is laid out
// group 0, group 1, ... regardless of the exchange order).
type localityLeaderAlg func(p *mpi.Proc, c *mpi.Comm, epoch int, groups [][]int, g, m int, tmp mpi.Buf, off []int)

// localityAllgather is the three-phase skeleton shared by locality-p2p,
// locality-ring and locality-bruck: (1) every member hands its block to the
// group leader by reference and the leader pulls it over CMA, (2) the
// leaders exchange variable-size group blocks with the given algorithm,
// (3) every member pulls the assembled result from its leader over CMA.
func localityAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf, exchange localityLeaderAlg) {
	checkAllgatherArgs(c, send, recv)
	m := send.Len()
	n := c.Size()
	me := c.Rank(p)
	epoch := c.Epoch(p)
	groups, groupOf, slotOf := localityGroups(p, c)
	g, slot := groupOf[me], slotOf[me]
	mine := groups[g]

	if slot != 0 {
		// Non-leader: expose the block (phase 1), then pull everything the
		// leader assembled (phase 3). The ByRef handoff costs nothing; the
		// CMA pulls carry the real intra-node price.
		leader := mine[0]
		p.Send(c, leader, mpi.Tag(epoch, mpi.PhaseLocGather, slot), send, mpi.ByRef())
		p.WaitInto(p.Irecv(c, leader, mpi.Tag(epoch, mpi.PhaseLocBcast, slot)), recv, nil)
		p.ChargeCMA(n * m)
		return
	}

	// ---- Phase 1 (leader): pull every member's block into a contiguous
	// group block, so phase 2 sends one message per group pair.
	k := len(mine)
	tmp := mpi.Make(n*m, send.IsPhantom())
	off := make([]int, len(groups)+1) // natural group-block offsets in tmp
	for i, grp := range groups {
		off[i+1] = off[i] + len(grp)*m
	}
	tmp.Slice(off[g], m).CopyFrom(send)
	for j := 1; j < k; j++ {
		p.WaitInto(p.Irecv(c, mine[j], mpi.Tag(epoch, mpi.PhaseLocGather, j)), tmp.Slice(off[g]+j*m, m), nil)
		p.ChargeCMA(m)
	}
	p.ChargeCopy(k * m)

	// ---- Phase 2: inter-group exchange over the leaders.
	if len(groups) > 1 {
		exchange(p, c, epoch, groups, g, m, tmp, off)
	}

	// ---- Scatter the group blocks into rank order. One bulk memmove: the
	// blocks are contiguous per group, only the group interleave varies.
	for i, grp := range groups {
		for j, cr := range grp {
			recv.Slice(cr*m, m).CopyFrom(tmp.Slice(off[i]+j*m, m))
		}
	}
	p.ChargeCopy(n * m)

	// ---- Phase 3 (leader): every member pulls the full result.
	if k > 1 {
		reqs := make([]*mpi.Request, 0, k-1)
		for j := 1; j < k; j++ {
			reqs = append(reqs, p.Isend(c, mine[j], mpi.Tag(epoch, mpi.PhaseLocBcast, j), recv, mpi.ByRef()))
		}
		for _, r := range reqs {
			p.Wait(r)
		}
	}
}

// LocalityP2PAllgather exchanges group blocks leader-to-leader with the
// direct-spread pattern: in step s the leader of group g sends its own
// block to group (g+s) and receives group (g-s)'s — no forwarding, G-1
// inter-node messages per leader.
func LocalityP2PAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	localityAllgather(p, c, send, recv,
		func(p *mpi.Proc, c *mpi.Comm, epoch int, groups [][]int, g, m int, tmp mpi.Buf, off []int) {
			G := len(groups)
			own := tmp.Slice(off[g], off[g+1]-off[g])
			for s := 1; s < G; s++ {
				dst := (g + s) % G
				src := (g - s + G) % G
				tag := mpi.Tag(epoch, mpi.PhaseLocX, s)
				rreq := p.Irecv(c, groups[src][0], tag)
				sreq := p.Isend(c, groups[dst][0], tag, own)
				p.WaitInto(rreq, tmp.Slice(off[src], off[src+1]-off[src]), nil)
				p.Wait(sreq)
			}
		})
}

// LocalityRingAllgather exchanges group blocks around a ring of leaders:
// G-1 nearest-leader steps, each forwarding the block received in the
// previous step. Every inter-node link carries each node block exactly
// once, which is what makes it the steady-state winner on tapered trees.
func LocalityRingAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	localityAllgather(p, c, send, recv,
		func(p *mpi.Proc, c *mpi.Comm, epoch int, groups [][]int, g, m int, tmp mpi.Buf, off []int) {
			G := len(groups)
			right := groups[(g+1)%G][0]
			left := groups[(g-1+G)%G][0]
			cur := g
			for s := 0; s < G-1; s++ {
				tag := mpi.Tag(epoch, mpi.PhaseLocX, s)
				rreq := p.Irecv(c, left, tag)
				sreq := p.Isend(c, right, tag, tmp.Slice(off[cur], off[cur+1]-off[cur]))
				cur = (cur - 1 + G) % G
				p.WaitInto(rreq, tmp.Slice(off[cur], off[cur+1]-off[cur]), nil)
				p.Wait(sreq)
			}
		})
}

// LocalityBruckAllgather exchanges group blocks with Bruck's algorithm over
// the leaders: ceil(log2 G) steps of doubling aggregate size, so short
// leader counts finish in few rounds. The staging buffer is kept in
// rotated group order during the exchange and un-rotated at the end.
func LocalityBruckAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	localityAllgather(p, c, send, recv,
		func(p *mpi.Proc, c *mpi.Comm, epoch int, groups [][]int, g, m int, tmp mpi.Buf, off []int) {
			G := len(groups)
			n := off[G] / m
			// rot[i]: offset of the i-th rotated block (group (g+i)%G); the
			// sender's first cnt rotated blocks are groups g..g+cnt-1 from
			// the receiver's point of view too, so sizes always agree.
			rot := make([]int, G+1)
			for i := 0; i < G; i++ {
				rot[i+1] = rot[i] + len(groups[(g+i)%G])*m
			}
			stage := mpi.Make(n*m, tmp.IsPhantom())
			stage.Slice(0, rot[1]).CopyFrom(tmp.Slice(off[g], off[g+1]-off[g]))
			filled := 1
			step := 0
			for pow := 1; pow < G; pow *= 2 {
				cnt := pow
				if G-filled < cnt {
					cnt = G - filled
				}
				dst := (g - pow + G) % G
				src := (g + pow) % G
				tag := mpi.Tag(epoch, mpi.PhaseLocX, step)
				got := p.SendRecv(c, groups[dst][0], tag, stage.Slice(0, rot[cnt]), groups[src][0], tag)
				stage.Slice(rot[filled], rot[filled+cnt]-rot[filled]).CopyFrom(got)
				filled += cnt
				step++
			}
			for i := 0; i < G; i++ {
				gg := (g + i) % G
				tmp.Slice(off[gg], off[gg+1]-off[gg]).CopyFrom(stage.Slice(rot[i], rot[i+1]-rot[i]))
			}
			p.ChargeCopy(n * m) // one bulk memmove for the un-rotation
		})
}

// HierBruckMLAllgather is the multi-level hierarchical Bruck: instead of
// funneling through one leader per node, every member runs its own Bruck
// exchange across the groups against the same-slot members of the other
// nodes, and the members of each node continuously share what they have
// gathered so far over CMA. There is no intra-node gather phase at all —
// member j's share of the node's traffic is exactly its own block — so all
// rails of a node are driven concurrently from step one, and the CMA
// shares of round s ride the CPU while the NICs carry inter-node step s+1
// (the paper's phase-overlap, applied per member). Requires equal group
// sizes; uneven communicators fall back to LocalityBruckAllgather.
func HierBruckMLAllgather(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf) {
	checkAllgatherArgs(c, send, recv)
	m := send.Len()
	me := c.Rank(p)
	groups, groupOf, slotOf := localityGroups(p, c)
	G := len(groups)
	k := len(groups[0])
	for _, grp := range groups {
		if len(grp) != k {
			LocalityBruckAllgather(p, c, send, recv)
			return
		}
	}
	epoch := c.Epoch(p)
	g, j := groupOf[me], slotOf[me]

	// tmpJ accumulates, in rotated order, the block of group (g+i)%G's
	// slot-j member. Once a range of tmpJ has landed it is never rewritten,
	// so in-flight ByRef exposures of earlier ranges stay valid.
	tmpJ := mpi.Make(G*m, send.IsPhantom())
	p.LocalCopy(tmpJ.Slice(0, m), send)

	var pending []*mpi.Request
	// share exposes tmpJ's rotated range [lo, lo+cnt) to every sibling,
	// places the own copy, and pulls the siblings' same range over CMA
	// straight into rank order (a scattered process_vm_readv — the pull is
	// the placement, so only the own copy charges memcpy time).
	share := func(round, lo, cnt int) {
		for jj := 0; jj < k; jj++ {
			if jj == j {
				continue
			}
			pending = append(pending, p.Isend(c, groups[g][jj],
				mpi.Tag(epoch, mpi.PhaseLocBcast, round), tmpJ.Slice(lo*m, cnt*m), mpi.ByRef()))
		}
		for i := lo; i < lo+cnt; i++ {
			recv.Slice(groups[(g+i)%G][j]*m, m).CopyFrom(tmpJ.Slice(i*m, m))
		}
		p.ChargeCopy(cnt * m)
		for jj := 0; jj < k; jj++ {
			if jj == j {
				continue
			}
			got := p.Recv(c, groups[g][jj], mpi.Tag(epoch, mpi.PhaseLocBcast, round))
			p.ChargeCMA(cnt * m)
			for i := lo; i < lo+cnt; i++ {
				recv.Slice(groups[(g+i)%G][jj]*m, m).CopyFrom(got.Slice((i-lo)*m, m))
			}
		}
	}

	// Bruck across groups between slot-j members. Slots never share an
	// endpoint pair, so the per-step tags cannot collide across slots; the
	// intra-node share tags are disambiguated by (sender, round).
	filled := 1
	step := 0
	prevLo, prevCnt := 0, 1
	for pow := 1; pow < G; pow *= 2 {
		cnt := pow
		if G-filled < cnt {
			cnt = G - filled
		}
		dst := groups[(g-pow+G)%G][j]
		src := groups[(g+pow)%G][j]
		tag := mpi.Tag(epoch, mpi.PhaseLocX, step)
		rreq := p.Irecv(c, src, tag)
		sreq := p.Isend(c, dst, tag, tmpJ.Slice(0, cnt*m))
		share(step, prevLo, prevCnt) // CPU shares round s while NICs run step s+1
		p.WaitInto(rreq, tmpJ.Slice(filled*m, cnt*m), nil)
		p.Wait(sreq)
		prevLo, prevCnt = filled, cnt
		filled += cnt
		step++
	}
	share(step, prevLo, prevCnt) // tail: the final range still needs sharing
	p.Waitall(pending...)
}
