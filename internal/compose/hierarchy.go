package compose

import (
	"fmt"
	"strings"

	"mha/internal/kv"
	"mha/internal/sched"
	"mha/internal/topology"
)

// Hierarchy is the declarative machine spec a composition is lowered
// against: the world of ranks, its nodes (the CMA domains), the leader
// group (rank 0 of every node, the only ranks that talk across nodes
// in hierarchical pipelines), and the rails (the HCAs leader transfers
// may stripe across). It is a thin view over topology.Cluster so the
// lowered schedule, the analyzer and the runtime all agree on shape.
type Hierarchy struct {
	Topo topology.Cluster
}

// NewHierarchy wraps a cluster topology.
func NewHierarchy(topo topology.Cluster) Hierarchy { return Hierarchy{Topo: topo} }

// Level describes one level of the hierarchy for display and tests.
type Level struct {
	// Name is "world", "node", "leader-group" or "rail".
	Name string
	// Groups is how many instances of the level the machine has, and
	// Size how many members each has.
	Groups, Size int
}

// Levels lists the hierarchy top-down: the world, the nodes, the
// leader group, and the rails per node.
func (h Hierarchy) Levels() []Level {
	t := h.Topo
	return []Level{
		{Name: "world", Groups: 1, Size: t.Size()},
		{Name: "node", Groups: t.Nodes, Size: t.PPN},
		{Name: "leader-group", Groups: 1, Size: t.Nodes},
		{Name: "rail", Groups: t.Nodes, Size: t.HCAs},
	}
}

// String renders the canonical one-line spec accepted by
// ParseHierarchy.
func (h Hierarchy) String() string {
	t := h.Topo
	s := fmt.Sprintf("world nodes=%d ppn=%d hcas=%d layout=%s", t.Nodes, t.PPN, t.HCAs, t.Layout)
	if t.Sockets > 0 {
		s += fmt.Sprintf(" sockets=%d", t.Sockets)
	}
	return s
}

// Describe renders the level table, one line per level.
func (h Hierarchy) Describe() string {
	var b strings.Builder
	for _, lv := range h.Levels() {
		fmt.Fprintf(&b, "%-12s %d x %d\n", lv.Name, lv.Groups, lv.Size)
	}
	return b.String()
}

// ParseHierarchy reads the one-line spec String produces:
//
//	world nodes=4 ppn=8 hcas=2 layout=block sockets=2
//
// layout defaults to block and sockets to 0 (no NUMA split); hcas
// defaults to 1. The result is shape-validated, and a world past the
// schedule limit (sched.MaxRanks) is refused, since no plan for it lowers.
func ParseHierarchy(line string) (Hierarchy, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "world" {
		return Hierarchy{}, fmt.Errorf("compose: hierarchy spec must start with \"world\"")
	}
	set, err := kv.Parse(fields[1:], "nodes", "ppn", "hcas", "layout", "sockets")
	if err != nil {
		return Hierarchy{}, fmt.Errorf("compose: %v", err)
	}
	t, err := topology.Decode(set, topology.Cluster{Nodes: -1, PPN: -1, HCAs: 1})
	if err == nil {
		err = t.Validate()
	}
	if err == nil && t.Size() > sched.MaxRanks {
		err = fmt.Errorf("%d ranks exceeds the %d-rank schedule limit", t.Size(), sched.MaxRanks)
	}
	if err != nil {
		return Hierarchy{}, fmt.Errorf("compose: %v", err)
	}
	return Hierarchy{Topo: t}, nil
}
