// Package compose is the composition layer over the sched IR: a
// collective is not hand-written code but a pipeline of three
// primitives — multicast, reduce, fence — interpreted against a
// declarative machine hierarchy (world → node → leader group → rail)
// and compiled down to a sched.Schedule plus sched.Goal. Every derived
// schedule therefore inherits the whole toolchain for free: the static
// analyzer checks completeness, hold progression, double folds and rail
// conflicts; the alpha-beta model prices it; the interpreter executes
// it on the mpi runtime; and the verify campaign, the cluster
// scheduler's job mix and the bench registry all consume the derived
// variants through one registration point (Variants).
//
// The primitive algebra follows HiCCL's: multicast moves copies of
// blocks toward the ranks that want them at some scope of the
// hierarchy, reduce folds partial contributions together (ownership
// chosen by the collective's goal), and fence forbids fusing the
// primitives on either side into overlapped steps. Reduce-scatter,
// alltoall, gather and scatter are derived this way, and the three
// hand-written collectives (allgather, allreduce, bcast) are re-derived
// as lowerings of the same pipelines — the two-phase multi-HCA
// allgather composition compiles to the byte-identical schedule
// TwoPhaseMHA builds by hand.
package compose

import "fmt"

// Collective names the contract a composition implements; it selects
// the goal (who starts and ends with which blocks) the lowering
// compiles against.
type Collective int

const (
	Allgather Collective = iota
	ReduceScatter
	Alltoall
	Gather
	Scatter
	Allreduce
	Bcast
)

var collNames = []string{"allgather", "reduce-scatter", "alltoall", "gather", "scatter", "allreduce", "bcast"}

func (c Collective) String() string {
	if c < 0 || int(c) >= len(collNames) {
		return fmt.Sprintf("Collective(%d)", int(c))
	}
	return collNames[c]
}

// ParseCollective resolves a collective by its textual name.
func ParseCollective(s string) (Collective, error) {
	for i, name := range collNames {
		if s == name {
			return Collective(i), nil
		}
	}
	return 0, fmt.Errorf("compose: unknown collective %q", s)
}

// Collectives lists every collective the layer can derive.
//
//lint:ignore unreached FuzzParseComposition and verify's TestImageMatchesSpec cover every collective through it
func Collectives() []Collective {
	out := make([]Collective, len(collNames))
	for i := range out {
		out[i] = Collective(i)
	}
	return out
}

// Op is a primitive's kind.
type Op int

const (
	// Multicast moves block copies toward the ranks that want them
	// within the primitive's scope.
	Multicast Op = iota
	// Reduce folds partial contributions together within the scope.
	Reduce
	// Fence is a sequencing barrier: the lowering may not fuse the
	// primitives on either side into overlapped steps.
	Fence
)

func (o Op) String() string {
	switch o {
	case Multicast:
		return "mc"
	case Reduce:
		return "red"
	case Fence:
		return "fence"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Scope selects the hierarchy level a primitive acts on.
type Scope int

const (
	// ScopeWorld is the flat view: every rank, no hierarchy.
	ScopeWorld Scope = iota
	// ScopeNode acts within each node (the CMA domain).
	ScopeNode
	// ScopeLeaders acts between the node leaders (the rail domain).
	ScopeLeaders
)

func (s Scope) String() string {
	switch s {
	case ScopeWorld:
		return "world"
	case ScopeNode:
		return "node"
	case ScopeLeaders:
		return "leaders"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

func parseScope(s string) (Scope, error) {
	switch s {
	case "world":
		return ScopeWorld, nil
	case "node":
		return ScopeNode, nil
	case "leaders":
		return ScopeLeaders, nil
	default:
		return 0, fmt.Errorf("unknown scope %q", s)
	}
}

// Alg selects the communication pattern a primitive lowers to.
type Alg int

const (
	// AlgDirect sends each block straight from a holder to each rank
	// (or leader) that needs it, in as few steps as the pattern allows.
	AlgDirect Alg = iota
	// AlgRing rotates blocks around the scope's members; for a reduce
	// this is the reduce-scatter ring (ownership by block index).
	AlgRing
	// AlgRD exchanges doubling ranges (power-of-two member counts fall
	// back to ring otherwise).
	AlgRD
	// AlgTree is the binomial tree from the single holder (broadcasts).
	AlgTree
	// AlgPull is the receiver-driven intra-node read: peers pull wanted
	// blocks out of their leader's buffer.
	AlgPull
)

var algNames = []string{"direct", "ring", "rd", "tree", "pull"}

func (a Alg) String() string {
	if a < 0 || int(a) >= len(algNames) {
		return fmt.Sprintf("Alg(%d)", int(a))
	}
	return algNames[a]
}

func parseAlg(s string) (Alg, error) {
	for i, name := range algNames {
		if s == name {
			return Alg(i), nil
		}
	}
	return 0, fmt.Errorf("unknown alg %q", s)
}

// AutoOffload asks a node-scope multicast to derive its HCA offload
// count from the performance model (sched.AutoOffload).
const AutoOffload = -1

// Prim is one primitive of a composition pipeline.
type Prim struct {
	Op    Op
	Scope Scope
	Alg   Alg
	// Striped stripes leader-scope transfers across every rail in
	// pinned pieces (reductions cannot pin partial windows, so they use
	// the policy transport instead and ignore this).
	Striped bool
	// Offload is the node-scope direct spread's HCA offload step count
	// (AutoOffload derives it from the model; only meaningful there).
	Offload int
}

// Composition is a named collective expressed as a primitive pipeline.
type Composition struct {
	Name     string
	Coll     Collective
	Pipeline []Prim
}
