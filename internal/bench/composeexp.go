package bench

import (
	"fmt"
	"io"

	"mha/internal/compose"
	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/sim"
	"mha/internal/topology"
)

// runComposeExperiment lowers every registered derived collective on a
// sweep of machine shapes and puts the composition layer on trial: the
// pipeline must compile, pass the full static analysis (completeness,
// hold discipline, rail conflicts), and the analyzer's alpha-beta cost
// must track the simulated makespan of the same schedule. The table is
// the derivation audit: one row per (variant, machine), with pipeline
// length, lowered step/transfer counts, and both latency estimates.
func runComposeExperiment(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	const msg = 64 << 10
	topos := []topology.Cluster{
		topology.New(2, 4, 2),
		topology.New(4, 4, 2),
	}
	if sc == Full {
		topos = append(topos, topology.New(8, 16, 2), topology.New(16, 32, 2))
	}
	tbl := NewTable(fmt.Sprintf("compositional collectives: derived schedules, %d KB per rank slot", msg>>10),
		"variant", "machine", "prims", "steps", "xfers", "analyzer (us)", "simulated (us)", "ratio")
	tbl.Notes = "every row passed the static analyzer (completeness, hold, rail conflicts) before timing;\n" +
		"ratio = analyzer/simulated on the same lowered schedule"
	for _, v := range compose.Variants() {
		for _, topo := range topos {
			plan, err := compose.Lower(v.Comp, compose.NewHierarchy(topo), msg, prm)
			if err != nil {
				return fmt.Errorf("%s on %v: %v", v.Name, topo, err)
			}
			rep, err := plan.Analyze(prm, nil)
			if err != nil {
				return fmt.Errorf("%s on %v: analyze: %v", v.Name, topo, err)
			}
			mk, err := sched.SimulateGoal(topo, prm, plan.Sched, plan.Goal)
			if err != nil {
				return fmt.Errorf("%s on %v: simulate: %v", v.Name, topo, err)
			}
			xfers := 0
			for _, st := range plan.Sched.Steps {
				xfers += len(st.Xfers)
			}
			tbl.Add(v.Name, fmt.Sprintf("%dx%dx%d", topo.Nodes, topo.PPN, topo.HCAs),
				len(v.Comp.Pipeline), len(plan.Sched.Steps), xfers,
				rep.Cost.Micros(), mk.Micros(), float64(rep.Cost)/float64(mk))
		}
	}
	return tbl.Fprint(w)
}

// ComposeLatency lowers one registered derived collective and returns
// its simulated makespan — the modeled-latency sample behind the
// compose tier-1 probe.
func ComposeLatency(name string, topo topology.Cluster, msg int) (sim.Duration, error) {
	v, ok := compose.ByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown compose variant %q", name)
	}
	prm := netmodel.Thor()
	plan, err := compose.Lower(v.Comp, compose.NewHierarchy(topo), msg, prm)
	if err != nil {
		return 0, err
	}
	return sched.SimulateGoal(topo, prm, plan.Sched, plan.Goal)
}

func init() {
	register("compose", "compositional collectives: derived schedule audit (analyzer vs simulator)", runComposeExperiment)
}
