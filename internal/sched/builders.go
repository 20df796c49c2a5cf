package sched

import (
	"fmt"
	"math/bits"

	"mha/internal/netmodel"
	"mha/internal/perfmodel"
	"mha/internal/topology"
)

// The lowering constructors: each expresses one of the repo's hand-
// written allgather designs as an explicit Schedule. They are pure
// functions of (topology, message size, options) — every rank of a job
// that builds the same schedule gets the identical plan.

// Ring lowers the classic ring allgather: n-1 steps, each rank
// forwarding the block it received in the previous step to its right
// neighbor over the default transport.
func Ring(topo topology.Cluster, msg int) *Schedule {
	return NewBuilder("ring", topo, msg).WorldRing().MustBuild()
}

// WorldRing emits the flat rotation: in step s every rank forwards the
// block it received in step s-1 (its own at s = 0) to its right
// neighbor.
func (b *Builder) WorldRing() *Builder {
	n := b.s.Topo.Size()
	for s := 0; s < n-1; s++ {
		b.Step()
		for r := 0; r < n; r++ {
			b.Send(r, (r+1)%n, ((r-s)%n+n)%n)
		}
	}
	return b
}

// RecursiveDoubling lowers the recursive-doubling allgather: log2(n)
// steps, each rank exchanging its accumulated aligned block range with
// its partner at distance 2^k. Like the hand-written RDAllgather, it
// requires a power-of-two size; other sizes fall back to the ring
// lowering (the hand-written code falls back to Bruck, whose shifted
// intermediate state does not map onto contiguous block ranges).
func RecursiveDoubling(topo topology.Cluster, msg int) *Schedule {
	n := topo.Size()
	if n&(n-1) != 0 {
		return Ring(topo, msg)
	}
	b := NewBuilder("rd", topo, msg)
	for dist := 1; dist < n; dist *= 2 {
		b.Step()
		for r := 0; r < n; r++ {
			base := r &^ (2*dist - 1) // group base after this exchange
			mine := base
			if r&dist != 0 {
				mine = base + dist // r is the upper half: it holds the upper range
			}
			b.SendRange(r, r^dist, mine, dist)
		}
	}
	return b.MustBuild()
}

// Phase2Alg selects the leader exchange of the two-phase MHA lowering.
type Phase2Alg int

const (
	// Phase2Ring moves node blocks around the leader ring, one striped
	// rail transfer per leader per step.
	Phase2Ring Phase2Alg = iota
	// Phase2RD exchanges doubling node-block ranges between leaders;
	// non-power-of-two node counts fall back to Phase2Ring.
	Phase2RD
)

func (a Phase2Alg) String() string {
	if a == Phase2RD {
		return "rd"
	}
	return "ring"
}

// AutoOffload asks TwoPhaseMHA to derive the phase-1 HCA offload count
// from the performance model (Equation 1 of the paper, floored to whole
// transfers).
const AutoOffload = -1

// MHAOptions tunes the TwoPhaseMHA lowering.
type MHAOptions struct {
	// Phase2 picks the leader-exchange pattern.
	Phase2 Phase2Alg
	// Offload is the number of phase-1 direct-spread steps each rank
	// hands to the adapters (whole transfers; AutoOffload uses Eq. 1).
	Offload int
	// Sequential disables the phase-2/phase-3 fusion: all node blocks
	// arrive first, then one distribution step staged through a leader
	// copy (the Kandalla-style non-overlapped baseline).
	Sequential bool
	// Push makes the leader push arrived blocks to its peers over CMA
	// instead of the peers pulling them (pull spreads the copy cost
	// across the readers' CPUs, which is how the shared-memory phase 3
	// behaves).
	Push bool
}

// TwoPhaseMHA lowers the paper's hierarchical multi-HCA-aware design:
// phase 1 is the intra-node direct spread with the tail steps offloaded
// to the adapters, phase 2 moves whole node blocks between leaders
// striped across every rail (pinned pieces, one per rail), and phase 3
// distributes each arrived node block inside the node, fused into the
// following phase-2 step unless Sequential. Multi-node topologies need
// the block layout (node blocks must be contiguous in the receive
// buffer); single-node topologies work with either layout.
func TwoPhaseMHA(topo topology.Cluster, prm *netmodel.Params, msg int, opt MHAOptions) *Schedule {
	if topo.Nodes > 1 && topo.Layout != topology.Block {
		panic(fmt.Sprintf("sched: TwoPhaseMHA needs the block layout on %v", topo))
	}
	if prm == nil {
		prm = netmodel.Thor()
	}
	s, _ := (*mhaParts)(nil).plan(topo, prm, msg, opt)
	return s
}

// mhaParts keeps the two parts of two-phase MHA plans for plans that
// share them: phase 1 by its offload, and what follows it by the other
// options (the options with Offload zeroed, so that no option can drop
// out of the key). A nil *mhaParts keeps nothing.
type mhaParts struct {
	phase1 map[int]*prefix
	rest   map[MHAOptions][]Step
}

// plan is the one construction of a two-phase MHA plan. A plan with
// neither part kept is built in one Builder and, when p keeps parts,
// split at the phase boundary; otherwise the part p lacks is built alone
// and joined to the one it has (sharedSteps). The prefix is the plan's
// phase 1 as p keeps it, nil when p is.
func (p *mhaParts) plan(topo topology.Cluster, prm *netmodel.Params, msg int, opt MHAOptions) (*Schedule, *prefix) {
	d := offloadSteps(topo, prm, msg, opt.Offload)
	opt.Offload = 0
	var pre *prefix
	var rest []Step
	if p != nil {
		pre, rest = p.phase1[d], p.rest[opt]
	}
	if pre == nil && rest == nil {
		b := NewBuilder(opt.name(), topo, msg).NodeSpread(prm, d)
		k := len(b.s.Steps)
		s := b.mhaRest(opt).MustBuild()
		if p == nil {
			return s, nil
		}
		pre = &prefix{steps: s.Steps[:k:k]}
		p.phase1[d], p.rest[opt] = pre, s.Steps[k:]
		return s, pre
	}
	if pre == nil {
		pre = &prefix{steps: NewBuilder("", topo, msg).NodeSpread(prm, d).MustBuild().Steps}
		p.phase1[d] = pre
	}
	if rest == nil {
		rest = NewBuilder("", topo, msg).mhaRest(opt).MustBuild().Steps
		p.rest[opt] = rest
	}
	s := &Schedule{Name: opt.name(), Topo: topo, Msg: msg, Steps: sharedSteps(pre.steps, rest)}
	if len(s.Steps) > maxSteps {
		panic(s.Validate()) // parts that validate make a plan that does, but for the step limit
	}
	return s, pre
}

// name is the lowering's schedule name; the offload is not part of it.
func (opt MHAOptions) name() string {
	name := "mha-" + opt.Phase2.String()
	if opt.Sequential {
		name += "-seq"
	}
	if opt.Push {
		name += "-push"
	}
	return name
}

// mhaRest emits what follows phase 1 in a two-phase MHA plan: phase 2
// and phase 3, fused or staged. It does not depend on the offload.
func (b *Builder) mhaRest(opt MHAOptions) *Builder {
	b.LeaderRotation(opt.Phase2, true, !opt.Sequential, opt.Push)
	topo := b.s.Topo
	if N, L := topo.Nodes, topo.PPN; opt.Sequential && N > 1 && L > 1 {
		// Every remote node block at once, staged through a leader copy
		// (the shared-memory publish).
		b.Step()
		for v := 0; v < N; v++ {
			for nd := 0; nd < N; nd++ {
				if nd != v {
					b.Copy(topo.LeaderOf(v), nd*L, L)
					b.distribute(v, nd*L, L, opt.Push)
				}
			}
		}
	}
	return b
}

// sharedSteps joins step lists that other schedules share into the steps
// of a new one. Each step keeps its slices, capped, so that appending to
// one copies it instead of writing into a sibling's; nothing may write
// into them.
func sharedSteps(parts ...[]Step) []Step {
	var steps []Step
	for _, part := range parts {
		for _, st := range part {
			steps = append(steps, Step{
				Xfers:  st.Xfers[:len(st.Xfers):len(st.Xfers)],
				Copies: st.Copies[:len(st.Copies):len(st.Copies)],
			})
		}
	}
	return steps
}

// offloadSteps is the phase-1 offload count NodeSpread uses: offload
// itself, or Equation 1 under prm for AutoOffload, capped at L-1.
func offloadSteps(topo topology.Cluster, prm *netmodel.Params, msg, offload int) int {
	d := offload
	if d < 0 {
		// One d for the whole schedule: plan for the weakest node's rails.
		d = int(perfmodel.New(prm, topo.SingleNode(topo.PPN)).OffloadD(msg))
	}
	return min(d, topo.PPN-1)
}

// NodeSpread emits phase 1: the direct spread within each node, whose
// last d steps ride the otherwise idle adapters (loopback), matching
// core.offloadPlan's whole-transfer assignment. offload is d, or
// AutoOffload for Equation 1 under prm.
func (b *Builder) NodeSpread(prm *netmodel.Params, offload int) *Builder {
	topo := b.s.Topo
	N, L := topo.Nodes, topo.PPN
	d := offloadSteps(topo, prm, b.s.Msg, offload)
	for s := 1; s < L; s++ {
		b.Step()
		for nd := 0; nd < N; nd++ {
			for l := 0; l < L; l++ {
				src := topo.RankOf(nd, l)
				dst := topo.RankOf(nd, (l+s)%L)
				if s >= L-d {
					b.SendHCA(src, dst, src, 1)
				} else {
					b.Send(src, dst, src)
				}
			}
		}
	}
	return b
}

// distribute hands a block range that arrived at node nd's leader to the
// node's other ranks: pulled by each of them, or pushed by the leader.
func (b *Builder) distribute(nd, first, count int, push bool) {
	topo := b.s.Topo
	leader := topo.LeaderOf(nd)
	for l := 1; l < topo.PPN; l++ {
		peer := topo.RankOf(nd, l)
		if push {
			b.SendRange(leader, peer, first, count)
		} else {
			b.Pull(leader, peer, first, count)
		}
	}
}

// LeaderRotation emits phase 2: whole node blocks moving between the
// node leaders. Under Phase2Ring every leader forwards to its right
// neighbor the node block it received in the previous step (its own
// first); under Phase2RD leaders exchange doubling node-block ranges
// (non-power-of-two node counts rotate as a ring). striped splits each
// transfer across every rail in pinned pieces, otherwise it is one
// adapter transfer under the default rail policy. fused is phase 3:
// the range a leader received in one step is distributed inside its
// node (see distribute) during the next, plus one trailing step.
func (b *Builder) LeaderRotation(alg Phase2Alg, striped, fused, push bool) *Builder {
	topo := b.s.Topo
	N, L := topo.Nodes, topo.PPN
	if N == 1 {
		return b
	}
	rd := alg == Phase2RD && N&(N-1) == 0
	steps := N - 1
	if rd {
		steps = bits.Len(uint(N)) - 1
	}
	type rng struct{ first, count int } // in node blocks
	prev := make([]rng, N)              // what each leader received in the previous step
	for k := 0; k < steps; k++ {
		b.Step()
		for v := 0; v < N; v++ {
			var to int
			var out, in rng
			if rd {
				dist := 1 << k
				base := v &^ (2*dist - 1) // group base after this exchange
				mine, theirs := base, base+dist
				if v&dist != 0 { // v is the upper half: it holds the upper range
					mine, theirs = theirs, mine
				}
				to, out, in = v^dist, rng{mine, dist}, rng{theirs, dist}
			} else {
				// The block v forwards has travelled k hops; its left
				// neighbor hands over the one a hop behind.
				to, out, in = (v+1)%N, rng{((v-k)%N + N) % N, 1}, rng{((v-k-1)%N + N) % N, 1}
			}
			if striped {
				b.Striped(topo.LeaderOf(v), topo.LeaderOf(to), out.first*L, out.count*L, topo.HCAs)
			} else {
				b.SendHCA(topo.LeaderOf(v), topo.LeaderOf(to), out.first*L, out.count*L)
			}
			if fused && k > 0 {
				b.distribute(v, prev[v].first*L, prev[v].count*L, push)
			}
			prev[v] = in
		}
	}
	if fused && L > 1 {
		b.Step()
		for v := 0; v < N; v++ {
			b.distribute(v, prev[v].first*L, prev[v].count*L, push)
		}
	}
	return b
}

// DirectRail is the synthesizer's greedy direct construction: every
// cross-node (src, dst) pair gets the source's block as one pinned
// transfer, list-scheduled into the earliest step with a rail free at
// both endpoints (tx at the source node, rx at the destination node);
// intra-node blocks spread over the same steps as receiver-driven
// pulls. Returns nil when the machine's cross-traffic cannot fit the
// step limit.
func DirectRail(topo topology.Cluster, msg int) *Schedule {
	n := topo.Size()
	N, L, H := topo.Nodes, topo.PPN, topo.HCAs
	// A node sends L*(n-L) blocks across, at most H of them a step: past
	// the step limit the greedy below could only fail, after building up
	// to maxSteps steps of occupancy.
	if L*(n-L) > maxSteps*H {
		return nil
	}
	nodeOf := make([]int, n)
	for r := range nodeOf {
		nodeOf[r] = topo.NodeOf(r)
	}
	// txUsed/rxUsed[step][node*H+rail] track pinned endpoint occupancy.
	var txUsed, rxUsed [][]bool
	ensure := func(step int) bool {
		for len(txUsed) <= step {
			if len(txUsed) >= maxSteps {
				return false
			}
			txUsed = append(txUsed, make([]bool, N*H))
			rxUsed = append(rxUsed, make([]bool, N*H))
		}
		return true
	}
	type placed struct{ src, dst, rail int }
	var byStep [][]placed
	// from[sn*N+dn] is where the search for a free rail pair from node sn
	// to node dn starts: the step its last transfer took. Occupancy only
	// grows, so every step before that has stayed full for the pair.
	from := make([]int, N*N)
	for src := 0; src < n; src++ {
		sn := nodeOf[src]
		for dst := 0; dst < n; dst++ {
			dn := nodeOf[dst]
			if dn == sn {
				continue
			}
			pair := &from[sn*N+dn]
			placedAt := -1
			for step := *pair; placedAt < 0; step++ {
				if !ensure(step) {
					return nil
				}
				for r := 0; r < H; r++ {
					if !txUsed[step][sn*H+r] && !rxUsed[step][dn*H+r] {
						txUsed[step][sn*H+r] = true
						rxUsed[step][dn*H+r] = true
						for len(byStep) <= step {
							byStep = append(byStep, nil)
						}
						byStep[step] = append(byStep[step], placed{src, dst, r})
						placedAt = step
						break
					}
				}
			}
			*pair = placedAt
		}
	}
	steps := len(txUsed)
	if steps == 0 && n > 1 {
		steps = 1
	}
	b := NewBuilder("direct-rail", topo, msg)
	for step := 0; step < steps; step++ {
		b.Step()
		if step < len(byStep) {
			for _, pl := range byStep[step] {
				b.RailPiece(pl.src, pl.dst, pl.src, 1, 0, msg, pl.rail)
			}
		}
		// Spread the intra-node exchange across the schedule: in step k,
		// every rank pulls the block of its node peer at distance k+1,
		// k+1+steps, ... — so only the first L-1 steps pull.
		if step+1 >= L {
			continue
		}
		for r := 0; r < n; r++ {
			nd, l := nodeOf[r], topo.LocalOf(r)
			for s := step + 1; s < L; s += steps {
				peer := topo.RankOf(nd, (l+s)%L)
				b.Pull(peer, r, peer, 1)
			}
		}
	}
	return b.MustBuild()
}
