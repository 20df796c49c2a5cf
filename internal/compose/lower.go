package compose

import (
	"fmt"

	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/topology"
)

// Plan is a lowered composition: the schedule, the goal it is checked
// against, and the inputs that produced them.
type Plan struct {
	Comp  Composition
	Hier  Hierarchy
	Msg   int
	Sched *sched.Schedule
	Goal  *sched.Goal
}

// Analyze statically checks and prices the plan with the sched
// analyzer (completeness, hold progression, double folds, rail
// conflicts; alpha-beta critical path). health follows
// sched.AnalyzeHealth's contract.
func (p *Plan) Analyze(prm *netmodel.Params, health []float64) (*sched.Report, error) {
	return sched.AnalyzeGoalHealth(p.Sched, prm, health, p.Goal)
}

// Lower compiles a composition for one (hierarchy, message size) pair.
// prm feeds the model-derived choices (the auto offload count); nil
// means netmodel.Thor(), matching the hand-written sched variants. The
// result is shape-validated; Plan.Analyze runs the semantic checks.
//
// Hierarchical pipelines (node or leader scope) need the block layout
// on multi-node machines, like every leader-based design in this repo:
// a node's blocks must be one contiguous range.
func Lower(comp Composition, hier Hierarchy, msg int, prm *netmodel.Params) (*Plan, error) {
	if err := hier.Topo.Validate(); err != nil {
		return nil, err
	}
	if len(comp.Pipeline) == 0 {
		return nil, fmt.Errorf("compose: %s has no primitives", comp.Name)
	}
	if prm == nil {
		prm = netmodel.Thor()
	}
	topo := hier.Topo
	n := topo.Size()
	for _, pr := range comp.Pipeline {
		if pr.Op != Fence && pr.Scope != ScopeWorld && topo.Nodes > 1 && topo.Layout != topology.Block {
			return nil, fmt.Errorf("compose: %s: %s-scope primitives need the block layout on %v",
				comp.Name, pr.Scope, topo)
		}
	}
	g := GoalFor(comp.Coll, n)
	lo := &lowerer{
		topo: topo, prm: prm,
		coll: comp.Coll, g: g,
		b: sched.NewBuilder(comp.Name, topo, msg),
	}
	if g.Blocks != n {
		lo.b.Blocks(g.Blocks)
	}
	pl := comp.Pipeline
	for i := 0; i < len(pl); i++ {
		pr := pl[i]
		if pr.Op == Fence {
			continue
		}
		var err error
		// The one fusion rule: a leader-scope rotation multicast followed
		// (without a fence) by a node-scope pull multicast overlaps the
		// distribution with the next rotation step — the paper's fused
		// phase-2/phase-3 design.
		if pr.Op == Multicast && pr.Scope == ScopeLeaders &&
			(pr.Alg == AlgRing || pr.Alg == AlgRD) &&
			i+1 < len(pl) && pl[i+1].Op == Multicast &&
			pl[i+1].Scope == ScopeNode && pl[i+1].Alg == AlgPull {
			err = lo.mcLeadersRotate(pr, true)
			i++
		} else {
			err = lo.apply(pr)
		}
		if err != nil {
			return nil, fmt.Errorf("compose: %s: %v", comp.Name, err)
		}
	}
	s, err := lo.b.Build()
	if err != nil {
		return nil, fmt.Errorf("compose: %s: %v", comp.Name, err)
	}
	return &Plan{Comp: comp, Hier: hier, Msg: msg, Sched: s, Goal: g}, nil
}

// lowerer carries the lowering state: the machine, the goal, and the
// schedule under construction.
type lowerer struct {
	topo topology.Cluster
	prm  *netmodel.Params
	coll Collective
	g    *sched.Goal
	b    *sched.Builder
}

func (lo *lowerer) apply(pr Prim) error {
	switch {
	case pr.Op == Multicast && pr.Scope == ScopeWorld && pr.Alg == AlgRing:
		return lo.mcWorldRing()
	case pr.Op == Multicast && pr.Scope == ScopeWorld && pr.Alg == AlgTree:
		return lo.mcWorldTree()
	case pr.Op == Multicast && pr.Scope == ScopeWorld && pr.Alg == AlgDirect:
		return lo.mcWorldDirect()
	case pr.Op == Multicast && pr.Scope == ScopeNode && pr.Alg == AlgDirect:
		return lo.mcNodeDirect(pr)
	case pr.Op == Multicast && pr.Scope == ScopeNode && pr.Alg == AlgPull:
		return lo.mcNodePull()
	case pr.Op == Multicast && pr.Scope == ScopeLeaders && (pr.Alg == AlgRing || pr.Alg == AlgRD):
		return lo.mcLeadersRotate(pr, false)
	case pr.Op == Multicast && pr.Scope == ScopeLeaders && pr.Alg == AlgTree:
		return lo.mcLeadersTree(pr)
	case pr.Op == Multicast && pr.Scope == ScopeLeaders && pr.Alg == AlgDirect:
		return lo.mcLeadersDirect()
	case pr.Op == Reduce && pr.Scope == ScopeWorld && pr.Alg == AlgRing:
		return lo.redWorldRing()
	case pr.Op == Reduce && pr.Scope == ScopeNode:
		return lo.redNode()
	case pr.Op == Reduce && pr.Scope == ScopeLeaders && pr.Alg == AlgRing:
		return lo.redLeadersRing()
	default:
		return fmt.Errorf("no lowering for primitive %q with collective %s", pr, lo.coll)
	}
}

// mcWorldRing is the flat rotation (sched.Builder.WorldRing, the loop
// sched.Ring is). It serves the allgather (and the allgather phase of
// the allreduce pipeline, where "block r" is the slot the reduce-scatter
// phase left fully reduced at rank r).
func (lo *lowerer) mcWorldRing() error {
	if lo.coll != Allgather && lo.coll != Allreduce {
		return fmt.Errorf("world-scope ring multicast derives allgather shapes, not %s", lo.coll)
	}
	lo.b.WorldRing()
	return nil
}

// mcWorldTree is the binomial broadcast from root 0.
func (lo *lowerer) mcWorldTree() error {
	if lo.coll != Bcast {
		return fmt.Errorf("world-scope tree multicast derives bcast, not %s", lo.coll)
	}
	n := lo.topo.Size()
	for dist := 1; dist < n; dist *= 2 {
		lo.b.Step()
		for r := 0; r < dist && r+dist < n; r++ {
			lo.b.Send(r, r+dist, 0)
		}
	}
	return nil
}

// mcWorldDirect sends each block straight from its holder to its
// wanter: the flat alltoall, gather and scatter.
func (lo *lowerer) mcWorldDirect() error {
	n := lo.topo.Size()
	switch lo.coll {
	case Alltoall:
		if n == 1 {
			return nil
		}
		lo.b.Step()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if d != s {
					lo.b.Send(s, d, s*n+d)
				}
			}
		}
	case Gather:
		if n == 1 {
			return nil
		}
		lo.b.Step()
		for r := 1; r < n; r++ {
			lo.b.Send(r, 0, r)
		}
	case Scatter:
		if n == 1 {
			return nil
		}
		lo.b.Step()
		for r := 1; r < n; r++ {
			lo.b.Send(0, r, r)
		}
	default:
		return fmt.Errorf("world-scope direct multicast derives alltoall/gather/scatter, not %s", lo.coll)
	}
	return nil
}

// mcNodeDirect is the node-scope staging pattern: the allgather's
// direct spread with its HCA offload tail (sched.Builder.NodeSpread,
// TwoPhaseMHA's phase 1), the alltoall's concentrate-at-leader plus
// on-node pulls, and the gather's members-to-leader push.
func (lo *lowerer) mcNodeDirect(pr Prim) error {
	topo := lo.topo
	n, N, L := topo.Size(), topo.Nodes, topo.PPN
	switch lo.coll {
	case Allgather:
		lo.b.NodeSpread(lo.prm, pr.Offload)
	case Alltoall:
		if L == 1 {
			return nil
		}
		lo.b.Step()
		for nd := 0; nd < N; nd++ {
			leader := topo.LeaderOf(nd)
			for l := 0; l < L; l++ {
				src := topo.RankOf(nd, l)
				// On-node chunks go straight to their peers,
				// receiver-driven.
				for l2 := 0; l2 < L; l2++ {
					if l2 == l {
						continue
					}
					dst := topo.RankOf(nd, l2)
					lo.b.Pull(src, dst, src*n+dst, 1)
				}
				// Cross-node ranges concentrate at the leader.
				if src == leader {
					continue
				}
				for nd2 := 0; nd2 < N; nd2++ {
					if nd2 != nd {
						lo.b.SendRange(src, leader, src*n+nd2*L, L)
					}
				}
			}
		}
	case Gather:
		if L == 1 {
			return nil
		}
		lo.b.Step()
		for nd := 0; nd < N; nd++ {
			leader := topo.LeaderOf(nd)
			for l := 1; l < L; l++ {
				src := topo.RankOf(nd, l)
				lo.b.Send(src, leader, src)
			}
		}
	default:
		return fmt.Errorf("node-scope direct multicast derives allgather/alltoall/gather, not %s", lo.coll)
	}
	return nil
}

// mcNodePull is the node-scope distribution: each non-leader reads the
// blocks it wants out of its leader's buffer.
func (lo *lowerer) mcNodePull() error {
	topo := lo.topo
	n, N, L := topo.Size(), topo.Nodes, topo.PPN
	if L == 1 {
		return nil
	}
	emitted := false
	step := func() {
		if !emitted {
			lo.b.Step()
			emitted = true
		}
	}
	for nd := 0; nd < N; nd++ {
		leader := topo.LeaderOf(nd)
		for l := 1; l < L; l++ {
			peer := topo.RankOf(nd, l)
			switch lo.coll {
			case Allgather:
				for nd2 := 0; nd2 < N; nd2++ {
					if nd2 != nd {
						step()
						lo.b.Pull(leader, peer, nd2*L, L)
					}
				}
			case Bcast:
				step()
				lo.b.Pull(leader, peer, 0, 1)
			case ReduceScatter, Scatter:
				step()
				lo.b.Pull(leader, peer, peer, 1)
			case Alltoall:
				for nd2 := 0; nd2 < N; nd2++ {
					if nd2 == nd {
						continue
					}
					for s := nd2 * L; s < (nd2+1)*L; s++ {
						step()
						lo.b.Pull(leader, peer, s*n+peer, 1)
					}
				}
			default:
				return fmt.Errorf("node-scope pull multicast does not serve %s", lo.coll)
			}
		}
	}
	return nil
}

// mcLeadersRotate moves whole node blocks between leaders, ring or
// recursive-doubling, optionally striped across every rail in pinned
// pieces. fused overlaps each node block's on-node distribution with
// the following rotation step (plus one trailing step). The loop is
// sched.Builder.LeaderRotation, the one TwoPhaseMHA's phase 2 is, so
// the fused striped pipeline is the two-phase MHA design by
// construction.
func (lo *lowerer) mcLeadersRotate(pr Prim, fused bool) error {
	if lo.coll != Allgather {
		return fmt.Errorf("leader-scope rotation multicast derives allgather, not %s", lo.coll)
	}
	alg := sched.Phase2Ring
	if pr.Alg == AlgRD {
		alg = sched.Phase2RD
	}
	lo.b.LeaderRotation(alg, pr.Striped, fused, false)
	return nil
}

// mcLeadersTree is the binomial broadcast over the leader group.
func (lo *lowerer) mcLeadersTree(pr Prim) error {
	if lo.coll != Bcast {
		return fmt.Errorf("leader-scope tree multicast derives bcast, not %s", lo.coll)
	}
	topo := lo.topo
	N, H := topo.Nodes, topo.HCAs
	for dist := 1; dist < N; dist *= 2 {
		lo.b.Step()
		for v := 0; v < dist && v+dist < N; v++ {
			if pr.Striped {
				lo.b.Striped(topo.LeaderOf(v), topo.LeaderOf(v+dist), 0, 1, H)
			} else {
				lo.b.SendHCA(topo.LeaderOf(v), topo.LeaderOf(v+dist), 0, 1)
			}
		}
	}
	return nil
}

// mcLeadersDirect sends aggregated node ranges between the leaders
// that hold them and the leaders (or root) that want them: the
// alltoall's pairwise exchange, the gather's leaders-to-root, the
// scatter's root-to-leaders.
func (lo *lowerer) mcLeadersDirect() error {
	topo := lo.topo
	n, N, L := topo.Size(), topo.Nodes, topo.PPN
	if N == 1 {
		return nil
	}
	switch lo.coll {
	case Alltoall:
		for k := 1; k < N; k++ {
			lo.b.Step()
			for v := 0; v < N; v++ {
				u := (v + k) % N
				for l := 0; l < L; l++ {
					s := topo.RankOf(v, l)
					lo.b.SendHCA(topo.LeaderOf(v), topo.LeaderOf(u), s*n+u*L, L)
				}
			}
		}
	case Gather:
		lo.b.Step()
		for nd := 1; nd < N; nd++ {
			lo.b.SendHCA(topo.LeaderOf(nd), 0, nd*L, L)
		}
	case Scatter:
		lo.b.Step()
		for nd := 1; nd < N; nd++ {
			lo.b.SendHCA(0, topo.LeaderOf(nd), nd*L, L)
		}
	default:
		return fmt.Errorf("leader-scope direct multicast derives alltoall/gather/scatter, not %s", lo.coll)
	}
	return nil
}

// redWorldRing is the flat reduce-scatter ring at slot granularity:
// slot j travels the ring folding every host's contribution and lands
// fully reduced at rank j. Serves reduce-scatter and the reduce phase
// of the allreduce pipeline.
func (lo *lowerer) redWorldRing() error {
	if lo.coll != ReduceScatter && lo.coll != Allreduce {
		return fmt.Errorf("world-scope ring reduce derives reduce-scatter shapes, not %s", lo.coll)
	}
	n := lo.topo.Size()
	for s := 0; s < n-1; s++ {
		lo.b.Step()
		for r := 0; r < n; r++ {
			lo.b.SendRed(r, (r+1)%n, ((r-s-1)%n+n)%n, 1)
		}
	}
	return nil
}

// redNode folds every member's whole contribution into its node
// leader, one fan-in step.
func (lo *lowerer) redNode() error {
	if lo.coll != ReduceScatter {
		return fmt.Errorf("node-scope reduce derives reduce-scatter, not %s", lo.coll)
	}
	topo := lo.topo
	N, L := topo.Nodes, topo.PPN
	if L == 1 {
		return nil
	}
	lo.b.Step()
	for nd := 0; nd < N; nd++ {
		leader := topo.LeaderOf(nd)
		for l := 1; l < L; l++ {
			src := topo.RankOf(nd, l)
			for _, rng := range lo.g.Init[src] {
				lo.b.SendRed(src, leader, rng.First, rng.Count)
			}
		}
	}
	return nil
}

// redLeadersRing is the reduce-scatter ring at node-block granularity:
// node range v lands fully reduced at leader v.
func (lo *lowerer) redLeadersRing() error {
	if lo.coll != ReduceScatter {
		return fmt.Errorf("leader-scope ring reduce derives reduce-scatter, not %s", lo.coll)
	}
	topo := lo.topo
	N, L := topo.Nodes, topo.PPN
	if N == 1 {
		return nil
	}
	for s := 0; s < N-1; s++ {
		lo.b.Step()
		for v := 0; v < N; v++ {
			sendNode := ((v-s-1)%N + N) % N
			lo.b.SendRedHCA(topo.LeaderOf(v), topo.LeaderOf((v+1)%N), sendNode*L, L)
		}
	}
	return nil
}
