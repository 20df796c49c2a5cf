package bench

import (
	"fmt"
	"io"

	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/topology"
)

// runSchedExperiment compares the schedule analyzer's alpha-beta cost
// prediction against the simulated makespan of the same schedule, for
// every lowered design plus the synthesizer's pick, at each machine
// scale. Two things are on trial: model fidelity (the predicted/
// simulated ratio and whether both agree on the winning design) and the
// synthesizer acceptance bar (its emitted schedule must simulate no
// slower than the best hand-written lowering).
func runSchedExperiment(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	const msg = 256 << 10
	topos := []topology.Cluster{
		topology.New(2, 2, 2),
		topology.New(4, 4, 2),
	}
	if sc == Full {
		topos = []topology.Cluster{
			topology.New(2, 2, 2),
			topology.New(4, 4, 2),
			topology.New(4, 8, 2),
			topology.New(8, 16, 2),
		}
	}
	tbl := NewTable(fmt.Sprintf("schedule IR: analyzer cost vs simulated makespan, %d KB", msg>>10),
		"machine", "schedule", "analyzer (us)", "simulated (us)", "ratio", "verdict")
	tbl.Notes = "ratio = analyzer/simulated; 'agree' marks the analyzer and simulator picking the same winner;\n" +
		"the synthesized row must simulate no slower than the best lowering (ties allowed)"
	for _, topo := range topos {
		res, err := sched.Synthesize(topo, prm, msg, sched.SynthOptions{})
		if err != nil {
			return fmt.Errorf("synthesize on %v: %v", topo, err)
		}
		// The pick simulates only the lowerings it can neither rule out nor
		// price exactly; the table reports every one, and the pick, as
		// simulated.
		if err := res.Measure(topo, prm, nil); err != nil {
			return err
		}
		machine := fmt.Sprintf("%dx%dx%d", topo.Nodes, topo.PPN, topo.HCAs)
		byCost, bySim := res.Lowered[0], res.Lowered[0]
		bestHand := res.Lowered[0]
		for _, c := range res.Lowered[1:] {
			if c.Cost < byCost.Cost {
				byCost = c
			}
			if c.Makespan < bySim.Makespan {
				bySim = c
			}
			if c.Makespan < bestHand.Makespan {
				bestHand = c
			}
		}
		for _, c := range res.Lowered {
			verdict := ""
			if c.Name == byCost.Name {
				if byCost.Name == bySim.Name {
					verdict = "winner (agree)"
				} else {
					verdict = "analyzer pick"
				}
			} else if c.Name == bySim.Name {
				verdict = "simulator pick"
			}
			tbl.Add(machine, c.Name, c.Cost.Micros(), c.Makespan.Micros(),
				float64(c.Cost)/float64(c.Makespan), verdict)
		}
		verdict := "<= best lowering"
		if res.Best.Makespan > bestHand.Makespan {
			verdict = fmt.Sprintf("SLOWER than %s", bestHand.Name)
		}
		tbl.Add(machine, "synthesized: "+res.Best.Name, res.Best.Cost.Micros(),
			res.Best.Makespan.Micros(),
			float64(res.Best.Cost)/float64(res.Best.Makespan), verdict)
	}
	return tbl.Fprint(w)
}

func init() {
	register("sched", "schedule IR: analyzer cost vs simulated makespan, synthesized vs lowered", runSchedExperiment)
}
