package compose_test

import (
	"testing"

	"mha/internal/compose"
	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/topology"
)

// testTopos spans the hierarchy shapes the lowerings must handle: a
// single rank, a single fat node, multi-node with and without multiple
// rails, odd counts, a NUMA split, and mixed 1-/2-HCA nodes.
var testTopos = []topology.Cluster{
	{Nodes: 1, PPN: 1, HCAs: 1, Layout: topology.Block},
	{Nodes: 1, PPN: 4, HCAs: 2, Layout: topology.Block},
	{Nodes: 2, PPN: 2, HCAs: 2, Layout: topology.Block},
	{Nodes: 2, PPN: 4, HCAs: 4, Layout: topology.Block, Sockets: 2},
	{Nodes: 3, PPN: 4, HCAs: 2, Layout: topology.Block},
	{Nodes: 4, PPN: 2, HCAs: 1, Layout: topology.Block},
	{Nodes: 5, PPN: 3, HCAs: 2, Layout: topology.Block},
	{Nodes: 4, PPN: 3, HCAs: 2, Layout: topology.Block, NodeHCAs: []int{1, 2, 1, 2}},
}

// smallShapes is every (nodes, ppn, hcas ∈ {1, 2}) machine of at most
// maxRanks ranks in each of the given layouts: ppn = 1, single nodes
// and every non-power-of-two count included.
func smallShapes(maxRanks int, layouts ...topology.Layout) []topology.Cluster {
	var out []topology.Cluster
	for nodes := 1; nodes <= maxRanks; nodes++ {
		for ppn := 1; nodes*ppn <= maxRanks; ppn++ {
			for hcas := 1; hcas <= 2; hcas++ {
				for _, layout := range layouts {
					out = append(out, topology.Cluster{Nodes: nodes, PPN: ppn, HCAs: hcas, Layout: layout})
				}
			}
		}
	}
	return out
}

// TestVariantsAnalyzeClean lowers every registered derived variant for
// every test topology and runs the full static analysis: completeness
// against the collective's goal, hold/provenance progression, double
// folds, rail conflicts. Every derived schedule must be violation-free
// with a positive modeled cost, and must also survive a contended
// phantom execution (SimulateGoal).
func TestVariantsAnalyzeClean(t *testing.T) {
	prm := netmodel.Thor()
	for _, v := range compose.Variants() {
		for _, topo := range testTopos {
			for _, msg := range []int{64, 4096} {
				plan, err := compose.Lower(v.Comp, compose.NewHierarchy(topo), msg, nil)
				if err != nil {
					t.Fatalf("%s on %v: %v", v.Name, topo, err)
				}
				rep, err := plan.Analyze(prm, nil)
				if err != nil {
					t.Fatalf("%s on %v msg=%d: analyze: %v", v.Name, topo, msg, err)
				}
				if rep.Cost <= 0 {
					t.Errorf("%s on %v msg=%d: non-positive modeled cost %v", v.Name, topo, msg, rep.Cost)
				}
				if _, err := sched.SimulateGoal(topo, prm, plan.Sched, plan.Goal); err != nil {
					t.Fatalf("%s on %v msg=%d: simulate: %v", v.Name, topo, msg, err)
				}
			}
		}
	}
}

// TestPrimitiveLowerings is the primitive-by-level table: each
// supported (op, scope, alg) pair is lowered in isolation (or with the
// minimal preceding stage it depends on) and checked structurally —
// step counts, transport kinds, reduce flags. Completeness of full
// pipelines is TestVariantsAnalyzeClean's job; here single stages are
// allowed to leave the goal unfinished.
func TestPrimitiveLowerings(t *testing.T) {
	topo := topology.Cluster{Nodes: 4, PPN: 4, HCAs: 2, Layout: topology.Block}
	n, N, L := topo.Size(), topo.Nodes, topo.PPN
	cases := []struct {
		name  string
		coll  compose.Collective
		prims []compose.Prim
		steps int
		check func(t *testing.T, s *sched.Schedule)
	}{
		{name: "mc-world-ring", coll: compose.Allgather,
			prims: []compose.Prim{{Op: compose.Multicast, Scope: compose.ScopeWorld, Alg: compose.AlgRing}},
			steps: n - 1,
			check: func(t *testing.T, s *sched.Schedule) {
				for _, st := range s.Steps {
					if len(st.Xfers) != n {
						t.Errorf("ring step has %d transfers, want %d", len(st.Xfers), n)
					}
				}
			}},
		{name: "mc-world-tree", coll: compose.Bcast,
			prims: []compose.Prim{{Op: compose.Multicast, Scope: compose.ScopeWorld, Alg: compose.AlgTree}},
			steps: 4, // ceil(log2 16)
			check: func(t *testing.T, s *sched.Schedule) {
				total := 0
				for _, st := range s.Steps {
					total += len(st.Xfers)
				}
				if total != n-1 {
					t.Errorf("binomial tree moved %d copies, want %d", total, n-1)
				}
			}},
		{name: "mc-world-direct-alltoall", coll: compose.Alltoall,
			prims: []compose.Prim{{Op: compose.Multicast, Scope: compose.ScopeWorld, Alg: compose.AlgDirect}},
			steps: 1,
			check: func(t *testing.T, s *sched.Schedule) {
				if got := len(s.Steps[0].Xfers); got != n*(n-1) {
					t.Errorf("direct alltoall has %d transfers, want %d", got, n*(n-1))
				}
			}},
		{name: "mc-world-direct-gather", coll: compose.Gather,
			prims: []compose.Prim{{Op: compose.Multicast, Scope: compose.ScopeWorld, Alg: compose.AlgDirect}},
			steps: 1,
			check: func(t *testing.T, s *sched.Schedule) {
				for _, x := range s.Steps[0].Xfers {
					if x.Dst != 0 {
						t.Errorf("gather transfer lands at %d, want root 0", x.Dst)
					}
				}
			}},
		{name: "mc-world-direct-scatter", coll: compose.Scatter,
			prims: []compose.Prim{{Op: compose.Multicast, Scope: compose.ScopeWorld, Alg: compose.AlgDirect}},
			steps: 1,
			check: func(t *testing.T, s *sched.Schedule) {
				for _, x := range s.Steps[0].Xfers {
					if x.Src != 0 {
						t.Errorf("scatter transfer leaves from %d, want root 0", x.Src)
					}
				}
			}},
		{name: "mc-node-direct-allgather", coll: compose.Allgather,
			prims: []compose.Prim{{Op: compose.Multicast, Scope: compose.ScopeNode, Alg: compose.AlgDirect}},
			steps: L - 1},
		{name: "mc-leaders-ring", coll: compose.Allgather,
			prims: []compose.Prim{
				{Op: compose.Multicast, Scope: compose.ScopeNode, Alg: compose.AlgDirect},
				{Op: compose.Multicast, Scope: compose.ScopeLeaders, Alg: compose.AlgRing, Striped: true},
			},
			steps: (L - 1) + (N - 1),
			check: func(t *testing.T, s *sched.Schedule) {
				last := s.Steps[len(s.Steps)-1]
				for _, x := range last.Xfers {
					if x.Via != sched.ViaRail {
						t.Errorf("striped leader transfer uses %v, want rail pinning", x.Via)
					}
				}
			}},
		{name: "mc-leaders-rd", coll: compose.Allgather,
			prims: []compose.Prim{
				{Op: compose.Multicast, Scope: compose.ScopeNode, Alg: compose.AlgDirect},
				{Op: compose.Multicast, Scope: compose.ScopeLeaders, Alg: compose.AlgRD},
			},
			steps: (L - 1) + 2}, // log2(4) leader exchanges
		{name: "mc-leaders-tree", coll: compose.Bcast,
			prims: []compose.Prim{{Op: compose.Multicast, Scope: compose.ScopeLeaders, Alg: compose.AlgTree}},
			steps: 2}, // ceil(log2 4)
		{name: "mc-node-pull-bcast", coll: compose.Bcast,
			prims: []compose.Prim{
				{Op: compose.Multicast, Scope: compose.ScopeLeaders, Alg: compose.AlgTree},
				{Op: compose.Multicast, Scope: compose.ScopeNode, Alg: compose.AlgPull},
			},
			steps: 3,
			check: func(t *testing.T, s *sched.Schedule) {
				last := s.Steps[len(s.Steps)-1]
				if len(last.Xfers) != N*(L-1) {
					t.Errorf("pull step has %d transfers, want %d", len(last.Xfers), N*(L-1))
				}
				for _, x := range last.Xfers {
					if x.Via != sched.ViaPull {
						t.Errorf("distribution transfer uses %v, want pull", x.Via)
					}
				}
			}},
		{name: "red-world-ring", coll: compose.ReduceScatter,
			prims: []compose.Prim{{Op: compose.Reduce, Scope: compose.ScopeWorld, Alg: compose.AlgRing}},
			steps: n - 1,
			check: func(t *testing.T, s *sched.Schedule) {
				for _, st := range s.Steps {
					for _, x := range st.Xfers {
						if !x.Red {
							t.Error("reduce-scatter ring transfer is not reducing")
						}
					}
				}
			}},
		{name: "red-node", coll: compose.ReduceScatter,
			prims: []compose.Prim{{Op: compose.Reduce, Scope: compose.ScopeNode}},
			steps: 1,
			check: func(t *testing.T, s *sched.Schedule) {
				if got := len(s.Steps[0].Xfers); got != N*(L-1) {
					t.Errorf("node fold has %d transfers, want %d", got, N*(L-1))
				}
			}},
		{name: "red-leaders-ring", coll: compose.ReduceScatter,
			prims: []compose.Prim{
				{Op: compose.Reduce, Scope: compose.ScopeNode},
				{Op: compose.Reduce, Scope: compose.ScopeLeaders, Alg: compose.AlgRing},
			},
			steps: 1 + (N - 1),
			check: func(t *testing.T, s *sched.Schedule) {
				last := s.Steps[len(s.Steps)-1]
				for _, x := range last.Xfers {
					if !x.Red || x.Via != sched.ViaHCA {
						t.Errorf("leader fold transfer red=%v via=%v, want reducing over HCA", x.Red, x.Via)
					}
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comp := compose.Composition{Name: "t-" + tc.name, Coll: tc.coll, Pipeline: tc.prims}
			plan, err := compose.Lower(comp, compose.NewHierarchy(topo), 256, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Sched.Steps) != tc.steps {
				t.Fatalf("lowered to %d steps, want %d:\n%s", len(plan.Sched.Steps), tc.steps, plan.Sched)
			}
			if tc.check != nil {
				tc.check(t, plan.Sched)
			}
		})
	}
}

// TestFusionRule: a leader ring followed by a node pull with no fence
// fuses the distribution into the rotation steps (plus one trailing
// step); a fence between them keeps the stages sequential.
func TestFusionRule(t *testing.T) {
	topo := topology.Cluster{Nodes: 4, PPN: 4, HCAs: 2, Layout: topology.Block}
	N, L := topo.Nodes, topo.PPN
	mk := func(fence bool) compose.Composition {
		pl := []compose.Prim{
			{Op: compose.Multicast, Scope: compose.ScopeNode, Alg: compose.AlgDirect},
			{Op: compose.Multicast, Scope: compose.ScopeLeaders, Alg: compose.AlgRing, Striped: true},
		}
		if fence {
			pl = append(pl, compose.Prim{Op: compose.Fence})
		}
		pl = append(pl, compose.Prim{Op: compose.Multicast, Scope: compose.ScopeNode, Alg: compose.AlgPull})
		return compose.Composition{Name: "fused", Coll: compose.Allgather, Pipeline: pl}
	}
	fused, err := compose.Lower(mk(false), compose.NewHierarchy(topo), 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	fenced, err := compose.Lower(mk(true), compose.NewHierarchy(topo), 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fused: phase 1 + (N-1) ring steps + one trailing distribution.
	if got, want := len(fused.Sched.Steps), (L-1)+(N-1)+1; got != want {
		t.Errorf("fused lowering has %d steps, want %d", got, want)
	}
	// Fenced: the pull distribution stands alone as one extra step, and
	// no ring step carries pulls.
	if got, want := len(fenced.Sched.Steps), (L-1)+(N-1)+1; got != want {
		t.Errorf("fenced lowering has %d steps, want %d", got, want)
	}
	ringSteps := fenced.Sched.Steps[L-1 : L-1+N-1]
	for si, st := range ringSteps {
		for _, x := range st.Xfers {
			if x.Via == sched.ViaPull {
				t.Errorf("fenced ring step %d carries a fused pull", si)
			}
		}
	}
	// Both must still analyze clean.
	for _, plan := range []*compose.Plan{fused, fenced} {
		if _, err := plan.Analyze(netmodel.Thor(), nil); err != nil {
			t.Fatalf("plan %s: %v", plan.Comp.Name, err)
		}
	}
}

func TestLowerErrors(t *testing.T) {
	cyclic := topology.Cluster{Nodes: 2, PPN: 2, HCAs: 1, Layout: topology.Cyclic}
	if _, err := compose.Lower(compose.Hierarchical(compose.ReduceScatter),
		compose.NewHierarchy(cyclic), 64, nil); err == nil {
		t.Error("hierarchical pipeline on a cyclic multi-node layout: expected error")
	}
	// Flat pipelines are layout-independent.
	if _, err := compose.Lower(compose.Flat(compose.ReduceScatter),
		compose.NewHierarchy(cyclic), 64, nil); err != nil {
		t.Errorf("flat pipeline on cyclic layout: %v", err)
	}
	block := topology.Cluster{Nodes: 2, PPN: 2, HCAs: 1, Layout: topology.Block}
	// A primitive with no lowering for the collective.
	bad := compose.Composition{Name: "bad", Coll: compose.ReduceScatter, Pipeline: []compose.Prim{
		{Op: compose.Multicast, Scope: compose.ScopeWorld, Alg: compose.AlgRing},
	}}
	if _, err := compose.Lower(bad, compose.NewHierarchy(block), 64, nil); err == nil {
		t.Error("world ring multicast for reduce-scatter: expected error")
	}
	empty := compose.Composition{Name: "empty", Coll: compose.Allgather}
	if _, err := compose.Lower(empty, compose.NewHierarchy(block), 64, nil); err == nil {
		t.Error("empty pipeline: expected error")
	}
}

// TestIncompletePipelineCaughtByAnalyzer: dropping the distribution
// stage of the hierarchical reduce-scatter leaves non-leaders without
// their slots — the analyzer must say so.
func TestIncompletePipelineCaughtByAnalyzer(t *testing.T) {
	topo := topology.Cluster{Nodes: 2, PPN: 2, HCAs: 1, Layout: topology.Block}
	comp := compose.Hierarchical(compose.ReduceScatter)
	comp.Pipeline = comp.Pipeline[:2] // drop the node pull
	plan, err := compose.Lower(comp, compose.NewHierarchy(topo), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Analyze(netmodel.Thor(), nil); err == nil {
		t.Fatal("truncated pipeline analyzed clean; want missing-block violations")
	}
}
