package verify

import (
	"strings"
	"testing"

	"mha/internal/compose"
	"mha/internal/topology"
)

// TestSharedPlanVariantsPass: the variants whose ranks all execute one
// per-world schedule or plan (sched.Runner, compose.Runner) pass the
// full double-run check on a multi-node, multi-rail world. CI runs this
// package under -race with default GOMAXPROCS.
func TestSharedPlanVariantsPass(t *testing.T) {
	for _, alg := range []string{"sched-mha", "compose-ag", "compose-rs"} {
		sc := Scenario{Alg: alg, Cluster: topology.New(2, 4, 2), Msg: 4096, Seed: 1}
		for _, v := range Check(sc) {
			t.Errorf("%s: %s", sc.Spec(), v)
		}
	}
}

// TestLoweringErrorIsARunViolation: a composition that cannot be lowered
// for the world's machine still panics on the calling rank with the
// lowering error plus "(at run time)", and RunOnce reports it as "run".
func TestLoweringErrorIsARunViolation(t *testing.T) {
	comp := compose.Hierarchical(compose.ReduceScatter)
	plant(t, Algorithm{Name: "broken-unlowerable", Coll: comp.Coll, Run: RunFn(compose.Runner(comp))})
	sc := Scenario{Alg: "broken-unlowerable", Cluster: topology.Cluster{Nodes: 2, PPN: 2, HCAs: 1, Layout: topology.Cyclic}, Msg: 64, Seed: 1}
	_, lerr := compose.Lower(comp, compose.NewHierarchy(sc.Cluster), sc.Msg, nil)
	if lerr == nil {
		t.Fatal("expected the hierarchical pipeline not to lower on a cyclic layout")
	}
	want := `sim: process "rank0" (id 0) panicked: ` + lerr.Error() + " (at run time)\n"
	for run, vs := range [][]Violation{RunOnce(sc, nil, nil).Violations, Check(sc)} {
		if len(vs) != 1 || vs[0].Kind != "run" || !strings.HasPrefix(vs[0].Detail, want) {
			t.Errorf("run %d: violations %v, want one run violation starting %q", run, vs, want)
		}
	}
}
