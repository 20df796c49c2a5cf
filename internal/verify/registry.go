// Package verify is the repo's randomized differential-verification
// harness: it generates adversarial collective scenarios (cluster shape,
// rank layout, message size, fault schedule, algorithm), runs each
// registered variant with real payloads against a directly-constructed
// oracle of the expected bytes, and audits the simulator's physics along
// the way (clock monotonicity, resource-busy conservation, drained
// mailboxes, determinism of the event timeline). Failing scenarios are
// greedily shrunk to a minimal one-line repro spec that `mha verify -repro` can
// replay.
package verify

import (
	"sort"

	"mha/internal/cluster"
	"mha/internal/collectives"
	"mha/internal/compose"
	"mha/internal/core"
	"mha/internal/mpi"
	"mha/internal/sched"
	"mha/internal/topology"
)

// RunFn is one collective implementation under verification. Buffer
// shapes follow compose.Geometry for the algorithm's collective; for
// the allgather family that means send holds one contribution
// (identical length on every rank) and recv holds Size contributions
// ordered by world rank.
type RunFn func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)

// Algorithm is one verifiable collective variant plus the topology
// constraints it documents. The constraints keep the generator honest:
// pairing a hierarchical algorithm with a cyclic layout would report
// oracle failures the algorithm's contract explicitly excludes.
type Algorithm struct {
	// Name identifies the variant in specs and reports.
	Name string
	// Coll is the collective contract the variant implements; the zero
	// value is allgather, which every hand-written variant predates.
	// It selects the buffer geometry and the byte oracle.
	Coll compose.Collective
	// Run executes the variant on the world communicator.
	Run RunFn
	// BlockOnly marks the hierarchical designs, which require the block
	// rank layout so node blocks are contiguous in the receive buffer
	// (see internal/collectives/twolevel.go). Single-node topologies are
	// exempt: with one node the two layouts coincide.
	BlockOnly bool
	// SingleNode marks intra-node-only variants (Nodes must be 1).
	SingleNode bool
	// EvenPPN marks variants needing an even processes-per-node count
	// (multi-leader with two leader groups).
	EvenPPN bool
}

// Supports reports whether the algorithm's contract covers the topology.
func (a Algorithm) Supports(c topology.Cluster) bool {
	if a.BlockOnly && c.Layout != topology.Block && c.Nodes > 1 {
		return false
	}
	if a.SingleNode && c.Nodes != 1 {
		return false
	}
	if a.EvenPPN && c.PPN%2 != 0 {
		return false
	}
	return true
}

// onComm adapts a communicator-based flat algorithm to a RunFn.
func onComm(fn func(*mpi.Proc, *mpi.Comm, mpi.Buf, mpi.Buf)) RunFn {
	return func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		fn(p, w.CommWorld(), send, recv)
	}
}

// registry is the one table that resolves a name to a runnable
// collective: the campaign, the explorer, the bench experiments that
// name a variant and the CLIs all look names up here. Rows derived from
// compose.Variants join in init below; Register adds test variants.
var registry = []Algorithm{
	// The flat allgathers run on any communicator and any layout.
	{Name: "ring", Run: onComm(collectives.RingAllgather)},
	{Name: "rd", Run: onComm(collectives.RDAllgather)},
	{Name: "bruck", Run: onComm(collectives.BruckAllgather)},
	{Name: "direct", Run: onComm(collectives.DirectSpreadAllgather)},
	{Name: "neighbor", Run: onComm(collectives.NeighborExchangeAllgather)},
	{Name: "locality-p2p", Run: onComm(collectives.LocalityP2PAllgather)},
	{Name: "locality-ring", Run: onComm(collectives.LocalityRingAllgather)},
	{Name: "locality-bruck", Run: onComm(collectives.LocalityBruckAllgather)},
	{Name: "hier-bruck-ml", Run: onComm(collectives.HierBruckMLAllgather)},
	{Name: "two-level", Run: collectives.KandallaAllgather, BlockOnly: true},
	{Name: "two-level-rd", Run: collectives.MamidalaAllgather, BlockOnly: true},
	{Name: "multi-leader", BlockOnly: true, EvenPPN: true,
		Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			collectives.MultiLeaderAllgather(p, w, send, recv, 2)
		}},
	{Name: "mha", Run: core.MHAAllgather, BlockOnly: true},
	{Name: "mha-ring", BlockOnly: true,
		Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			core.MHAInterAllgatherCfg(p, w, send, recv, core.InterConfig{LeaderAlg: core.ForceRing})
		}},
	{Name: "mha-rd", BlockOnly: true,
		Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			core.MHAInterAllgatherCfg(p, w, send, recv, core.InterConfig{LeaderAlg: core.ForceRD})
		}},
	{Name: "mha-seq", BlockOnly: true,
		Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			core.MHAInterAllgatherCfg(p, w, send, recv, core.InterConfig{NoOverlap: true})
		}},
	{Name: "mha-plain1", BlockOnly: true,
		Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			core.MHAInterAllgatherCfg(p, w, send, recv, core.InterConfig{PlainPhase1: true})
		}},
	{Name: "mha-3level", Run: core.MHA3LevelAllgather, BlockOnly: true},
	{Name: "mha-intra", Run: onComm(core.MHAIntraAllgather), SingleNode: true},
	// Schedule-interpreter variants (internal/sched): the same designs
	// lowered to the explicit schedule IR and run by the interpreter, so
	// the campaign differentially checks the IR semantics against the
	// hand-written implementations above under the full scenario space.
	{Name: "sched-ring", Run: sched.Runner(sched.Ring)},
	{Name: "sched-rd", Run: sched.Runner(sched.RecursiveDoubling)},
	{Name: "sched-mha", BlockOnly: true,
		Run: sched.Runner(func(topo topology.Cluster, msg int) *sched.Schedule {
			return sched.TwoPhaseMHA(topo, nil, msg, sched.MHAOptions{Offload: sched.AutoOffload})
		})},
	// The world allgather run the way the multi-tenant scheduler runs
	// jobs: contiguous rank groups run overlapping sub-communicator
	// allgathers, contending for rails and memory like co-scheduled
	// tenants, then leaders exchange windows and each group broadcasts
	// the result. This puts runtime comm creation, per-comm epochs,
	// interleaved rail traffic and teardown audits with several owners
	// under the campaign.
	{Name: "cluster-contended-2", Run: cluster.Contended(2)},
	{Name: "cluster-contended-4", Run: cluster.Contended(4)},
}

// The compose-derived variants register through compose.Variants, so a
// composition added there joins the campaign with its collective's
// geometry and oracle.
func init() {
	for _, v := range compose.Variants() {
		registry = append(registry, Algorithm{
			Name: v.Name, Coll: v.Coll, Run: RunFn(v.Run), BlockOnly: v.BlockOnly,
		})
	}
}

// Algorithms returns the registered variants sorted by name.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName resolves one registered variant.
func ByName(name string) (Algorithm, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return Algorithm{}, false
}

// Register adds a variant (tests use it to prove the harness catches
// deliberately broken implementations). A duplicate name replaces the
// existing entry.
func Register(a Algorithm) {
	for i := range registry {
		if registry[i].Name == a.Name {
			registry[i] = a
			return
		}
	}
	registry = append(registry, a)
}
