// Package topology describes the simulated cluster: how many nodes, how
// many processes per node (PPN), how many HCAs (network rails) per node,
// and how MPI ranks map onto nodes.
//
// The default mapping is "block" (consecutive ranks fill a node before the
// next node starts), which is how the paper's experiments place ranks
// (e.g. "32 nodes, 32 PPN" = ranks 0..31 on node 0, 32..63 on node 1, ...).
package topology

import (
	"fmt"
	"math"
)

// Layout selects how ranks map to nodes.
type Layout int

const (
	// Block places ranks 0..L-1 on node 0, L..2L-1 on node 1, and so on.
	Block Layout = iota
	// Cyclic deals ranks round-robin across nodes: rank r is on node r % N.
	Cyclic
	// Custom places ranks according to the cluster's explicit Ranks table.
	Custom
)

func (l Layout) String() string {
	switch l {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ParseLayout reads the name of a spec-settable layout: block or cyclic.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "block":
		return Block, nil
	case "cyclic":
		return Cyclic, nil
	}
	return 0, fmt.Errorf("unknown layout %q (want block or cyclic)", s)
}

// Error is a typed topology-validation failure. Field names the Cluster
// field at fault so callers (and tests) can assert on the cause rather
// than on message text.
type Error struct {
	Field  string
	Reason string
}

func (e *Error) Error() string {
	return "topology: " + e.Field + ": " + e.Reason
}

func errf(field, format string, args ...any) *Error {
	return &Error{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Cluster is an immutable description of the simulated machine.
type Cluster struct {
	// Nodes is the number of compute nodes (the paper's N).
	Nodes int
	// PPN is the number of MPI processes per node (the paper's L).
	PPN int
	// HCAs is the number of network adapters per node (the paper's H).
	HCAs int
	// Layout is the rank-to-node mapping.
	Layout Layout
	// Sockets optionally records NUMA domains per node (the paper's future
	// work is a 3-level NUMA-aware design); 0 or 1 means flat memory.
	Sockets int
	// NodeHCAs optionally overrides the HCA count per node for
	// heterogeneous clusters (e.g. mixed 1-HCA/2-HCA nodes). When set it
	// must hold one entry per node, each in [1, HCAs]; HCAs stays the
	// cluster-wide maximum. Empty means every node has HCAs rails.
	NodeHCAs []int
	// RailBW optionally scales each rail's line rate for asymmetric-rail
	// nodes (1.0 = nominal). When set it must hold one positive entry per
	// rail (len == HCAs). Empty means all rails run at nominal bandwidth.
	RailBW []float64
	// Ranks is the explicit rank placement used by the Custom layout:
	// Ranks[node] lists the world ranks hosted by that node in local
	// order. It must be Nodes rows of PPN ranks forming a permutation of
	// 0..Size()-1. Ignored (and rejected) under other layouts.
	Ranks [][]int
}

// New returns a block-layout cluster and panics on invalid shapes. Use a
// composite literal when a different layout is needed.
func New(nodes, ppn, hcas int) Cluster {
	c := Cluster{Nodes: nodes, PPN: ppn, HCAs: hcas, Layout: Block}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// Validate reports whether the cluster shape is usable. Failures are
// *Error values naming the field at fault.
func (c Cluster) Validate() error {
	if c.Nodes < 1 {
		return errf("Nodes", "need at least 1 node, have %d", c.Nodes)
	}
	if c.PPN < 1 {
		return errf("PPN", "need at least 1 process per node, have %d", c.PPN)
	}
	if c.HCAs < 1 {
		return errf("HCAs", "need at least 1 HCA per node, have %d", c.HCAs)
	}
	if c.Nodes > math.MaxInt/c.PPN {
		return errf("Nodes", "%d nodes x %d ppn overflows the rank count", c.Nodes, c.PPN)
	}
	if c.Layout != Block && c.Layout != Cyclic && c.Layout != Custom {
		return errf("Layout", "unknown layout %v", c.Layout)
	}
	if c.Sockets < 0 {
		return errf("Sockets", "negative socket count %d", c.Sockets)
	}
	if c.Sockets > 1 && c.PPN%c.Sockets != 0 {
		return errf("Sockets", "PPN %d not divisible by %d sockets", c.PPN, c.Sockets)
	}
	if c.NodeHCAs != nil {
		if len(c.NodeHCAs) != c.Nodes {
			return errf("NodeHCAs", "have %d entries, need one per node (%d)", len(c.NodeHCAs), c.Nodes)
		}
		for n, h := range c.NodeHCAs {
			if h < 1 {
				return errf("NodeHCAs", "node %d has %d HCAs; a node without a usable rail cannot send (every entry must be in [1,%d])", n, h, c.HCAs)
			}
			if h > c.HCAs {
				return errf("NodeHCAs", "node %d has %d HCAs, above the cluster-wide maximum %d", n, h, c.HCAs)
			}
		}
	}
	if c.RailBW != nil {
		if len(c.RailBW) != c.HCAs {
			return errf("RailBW", "have %d entries, need one per rail (%d)", len(c.RailBW), c.HCAs)
		}
		for r, s := range c.RailBW {
			if !(s > 0) || s > 1024 {
				return errf("RailBW", "rail %d scale %v out of range (0,1024]", r, s)
			}
		}
	}
	if c.Layout == Custom {
		if len(c.Ranks) != c.Nodes {
			return errf("Ranks", "custom layout has %d node rows, need %d", len(c.Ranks), c.Nodes)
		}
		seen := make([]bool, c.Size())
		for n, row := range c.Ranks {
			if len(row) != c.PPN {
				return errf("Ranks", "node %d hosts %d ranks, need PPN (%d)", n, len(row), c.PPN)
			}
			for _, r := range row {
				if r < 0 || r >= c.Size() {
					return errf("Ranks", "node %d lists rank %d, outside [0,%d)", n, r, c.Size())
				}
				if seen[r] {
					return errf("Ranks", "rank %d placed twice; a layout must place every rank exactly once", r)
				}
				seen[r] = true
			}
		}
	} else if c.Ranks != nil {
		return errf("Ranks", "explicit placement requires the custom layout, have %v", c.Layout)
	}
	return nil
}

// HCAsOf returns the number of HCAs on a node, honoring any
// heterogeneous per-node override.
func (c Cluster) HCAsOf(node int) int {
	if node < 0 || node >= c.Nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", node, c.Nodes))
	}
	if c.NodeHCAs != nil {
		return c.NodeHCAs[node]
	}
	return c.HCAs
}

// RailScale returns the bandwidth scale of a rail (1.0 when RailBW is
// unset). Rails at or above a node's HCA count are simply never used;
// the scale table is indexed by cluster-wide rail id.
func (c Cluster) RailScale(rail int) float64 {
	if rail < 0 || rail >= c.HCAs {
		panic(fmt.Sprintf("topology: rail %d out of range [0,%d)", rail, c.HCAs))
	}
	if c.RailBW == nil {
		return 1
	}
	return c.RailBW[rail]
}

// Heterogeneous reports whether any node or rail deviates from the
// uniform shape (per-node HCA overrides or non-nominal rail scales).
func (c Cluster) Heterogeneous() bool {
	for _, h := range c.NodeHCAs {
		if h != c.HCAs {
			return true
		}
	}
	for _, s := range c.RailBW {
		if s != 1 {
			return true
		}
	}
	return false
}

// MinHCAs returns the rail count of the weakest node (HCAs on a
// homogeneous cluster).
func (c Cluster) MinHCAs() int {
	least := c.HCAs
	for _, h := range c.NodeHCAs {
		if h < least {
			least = h
		}
	}
	return least
}

// SingleNode projects the cluster onto one flat node of ppn processes,
// the shape the intra-node cost model prices. It carries the weakest
// node's rail count, so one plan made from it suits every node; NodeHCAs,
// RailBW, Ranks, the layout and the sockets describe the whole machine
// and do not survive the projection.
func (c Cluster) SingleNode(ppn int) Cluster {
	return New(1, ppn, c.MinHCAs())
}

// NumaSockets reports the effective socket count (at least 1).
func (c Cluster) NumaSockets() int {
	if c.Sockets < 1 {
		return 1
	}
	return c.Sockets
}

// SocketOf returns the NUMA socket hosting the given local rank index.
// Locals are split into contiguous, equal-sized socket groups.
func (c Cluster) SocketOf(local int) int {
	if local < 0 || local >= c.PPN {
		panic(fmt.Sprintf("topology: local %d out of range [0,%d)", local, c.PPN))
	}
	s := c.NumaSockets()
	if s == 1 {
		return 0
	}
	return local / (c.PPN / s)
}

// SocketLocals returns the local indices belonging to a socket.
func (c Cluster) SocketLocals(socket int) []int {
	s := c.NumaSockets()
	if socket < 0 || socket >= s {
		panic(fmt.Sprintf("topology: socket %d out of range [0,%d)", socket, s))
	}
	per := c.PPN / s
	out := make([]int, per)
	for i := range out {
		out[i] = socket*per + i
	}
	return out
}

// SameSocket reports whether two local indices share a NUMA socket.
func (c Cluster) SameSocket(localA, localB int) bool {
	return c.SocketOf(localA) == c.SocketOf(localB)
}

// Size returns the total number of ranks (N * L).
func (c Cluster) Size() int { return c.Nodes * c.PPN }

// NodeOf returns the node hosting rank r.
func (c Cluster) NodeOf(r int) int {
	c.checkRank(r)
	switch c.Layout {
	case Cyclic:
		return r % c.Nodes
	case Custom:
		n, _ := c.findRank(r)
		return n
	}
	return r / c.PPN
}

// LocalOf returns rank r's index within its node (0..PPN-1).
func (c Cluster) LocalOf(r int) int {
	c.checkRank(r)
	switch c.Layout {
	case Cyclic:
		return r / c.Nodes
	case Custom:
		_, l := c.findRank(r)
		return l
	}
	return r % c.PPN
}

// RankOf returns the rank at (node, local).
func (c Cluster) RankOf(node, local int) int {
	if node < 0 || node >= c.Nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", node, c.Nodes))
	}
	if local < 0 || local >= c.PPN {
		panic(fmt.Sprintf("topology: local %d out of range [0,%d)", local, c.PPN))
	}
	switch c.Layout {
	case Cyclic:
		return local*c.Nodes + node
	case Custom:
		return c.Ranks[node][local]
	}
	return node*c.PPN + local
}

// findRank locates a rank in the custom placement table. Custom layouts
// are small validation worlds, so a linear scan is fine.
func (c Cluster) findRank(r int) (node, local int) {
	for n, row := range c.Ranks {
		for l, rr := range row {
			if rr == r {
				return n, l
			}
		}
	}
	panic(fmt.Sprintf("topology: rank %d missing from custom placement", r))
}

// LeaderOf returns the designated leader rank of a node (local index 0).
func (c Cluster) LeaderOf(node int) int { return c.RankOf(node, 0) }

// IsLeader reports whether rank r is its node's leader.
func (c Cluster) IsLeader(r int) bool { return c.LocalOf(r) == 0 }

// NodeRanks returns the ranks on a node in local order.
func (c Cluster) NodeRanks(node int) []int {
	out := make([]int, c.PPN)
	for l := 0; l < c.PPN; l++ {
		out[l] = c.RankOf(node, l)
	}
	return out
}

// Leaders returns the leader rank of every node in node order.
func (c Cluster) Leaders() []int {
	out := make([]int, c.Nodes)
	for n := 0; n < c.Nodes; n++ {
		out[n] = c.LeaderOf(n)
	}
	return out
}

// Equal reports whether two cluster descriptions are identical,
// including heterogeneous overrides and custom placements. (Cluster
// holds slices, so it is not comparable with ==.)
func (c Cluster) Equal(o Cluster) bool {
	if c.Nodes != o.Nodes || c.PPN != o.PPN || c.HCAs != o.HCAs ||
		c.Layout != o.Layout || c.Sockets != o.Sockets {
		return false
	}
	if len(c.NodeHCAs) != len(o.NodeHCAs) || len(c.RailBW) != len(o.RailBW) || len(c.Ranks) != len(o.Ranks) {
		return false
	}
	for i, h := range c.NodeHCAs {
		if o.NodeHCAs[i] != h {
			return false
		}
	}
	for i, s := range c.RailBW {
		if o.RailBW[i] != s {
			return false
		}
	}
	for i, row := range c.Ranks {
		if len(o.Ranks[i]) != len(row) {
			return false
		}
		for j, r := range row {
			if o.Ranks[i][j] != r {
				return false
			}
		}
	}
	return true
}

func (c Cluster) checkRank(r int) {
	if r < 0 || r >= c.Size() {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", r, c.Size()))
	}
}

func (c Cluster) String() string {
	return fmt.Sprintf("%d nodes x %d ppn x %d HCAs (%s)", c.Nodes, c.PPN, c.HCAs, c.Layout)
}
