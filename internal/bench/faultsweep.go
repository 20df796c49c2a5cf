package bench

import (
	"fmt"
	"io"

	"mha/internal/collectives"
	"mha/internal/core"
	"mha/internal/faults"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// AllgatherFn is one allgather implementation under test in the fault
// sweep.
type AllgatherFn func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)

// FaultAlgorithms returns the allgather variants the resilience sweep
// compares, in presentation order.
func FaultAlgorithms() []struct {
	Name string
	Fn   AllgatherFn
} {
	return []struct {
		Name string
		Fn   AllgatherFn
	}{
		{"mha", core.MHAAllgather},
		{"two-level", collectives.KandallaAllgather},
		{"multi-leader", func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			collectives.MultiLeaderAllgather(p, w, send, recv, 2)
		}},
		{"ring", func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			collectives.RingAllgather(p, w.CommWorld(), send, recv)
		}},
	}
}

// FaultedAllgatherLatency times one allgather of m bytes per rank on a
// world running under the given fault schedule, returning the completion
// time and the per-rail utilization summary. blind selects the naive
// (health-unaware) transport baseline.
func FaultedAllgatherLatency(topo topology.Cluster, prm *netmodel.Params, m int,
	alg AllgatherFn, sched *faults.Schedule, blind bool) (sim.Duration, []mpi.RailStat) {
	w := mpi.New(mpi.Config{
		Topo:       topo,
		Params:     prm,
		Phantom:    true,
		Faults:     sched,
		FaultBlind: blind,
	})
	lat := makespan(w, func(p *mpi.Proc) {
		alg(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size()))
	})
	return lat, w.RailStats()
}

// FaultScenarios returns the degraded-mode sweep's scenarios for a
// cluster of the given shape: healthy, one rail of node 0 down for the
// whole run, and every rail at half bandwidth (health-aware and naive).
func FaultScenarios() []struct {
	Name  string
	Sched *faults.Schedule
	Blind bool
} {
	railDown := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 1})
	outage := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 1,
		Until: 40 * sim.Time(sim.Microsecond)})
	degraded := faults.MustNew(faults.Fault{
		Kind: faults.Degrade, Node: faults.AllNodes, Rail: 1, Fraction: 0.5})
	return []struct {
		Name  string
		Sched *faults.Schedule
		Blind bool
	}{
		{"healthy", nil, false},
		{"rail1@node0 down", railDown, false},
		{"rail1@node0 down 40us", outage, false},
		{"rail1 50% (aware)", degraded, false},
		{"rail1 50% (naive)", degraded, true},
	}
}

// FprintRailStats renders a per-rail utilization table: busy time and
// acquisition counts of every rail's tx/rx engines — where the sweep's
// time actually went.
func FprintRailStats(w io.Writer, title string, stats []mpi.RailStat) error {
	t := NewTable(title, "rail", "tx busy", "tx uses", "rx busy", "rx uses")
	for _, s := range stats {
		t.Add(fmt.Sprintf("node%d.rail%d", s.Node, s.Rail),
			s.TxBusy, s.TxUses, s.RxBusy, s.RxUses)
	}
	return t.Fprint(w)
}

// runFaultSweep is the degraded-mode resilience experiment: every
// allgather variant under every fault scenario, with the health-aware
// striping's re-weighting visible as "aware" beating "naive" and the
// one-rail-down time landing between healthy multirail and a single-rail
// machine.
func runFaultSweep(w io.Writer, sc Scale) error {
	topo := sc.Cluster(8, 8, 2)
	oneRail := topology.New(topo.Nodes, topo.PPN, 1)
	prm := netmodel.Thor()
	sizes := sc.Sizes(geometric(64<<10, 512<<10))

	for _, alg := range FaultAlgorithms() {
		t := NewTable(
			fmt.Sprintf("degraded-mode allgather latency (us), %s, %d nodes x %d ppn x 2 rails",
				alg.Name, topo.Nodes, topo.PPN),
			append([]string{"size"}, scenarioColumns()...)...)
		for _, m := range sizes {
			row := []interface{}{SizeLabel(m)}
			for _, sc := range FaultScenarios() {
				lat, _ := FaultedAllgatherLatency(topo, prm, m, alg.Fn, sc.Sched, sc.Blind)
				row = append(row, lat.Micros())
			}
			lat1, _ := FaultedAllgatherLatency(oneRail, prm, m, alg.Fn, nil, false)
			row = append(row, lat1.Micros())
			t.Add(row...)
		}
		if err := t.Fprint(w); err != nil {
			return err
		}
	}

	// Satellite view: where the bytes went on the degraded machine. One
	// rail of node 0 is dead, so its engines must show zero acquisitions
	// while its partner rail carries the whole node.
	m := sizes[len(sizes)-1]
	_, stats := FaultedAllgatherLatency(topo, prm, m,
		core.MHAAllgather, FaultScenarios()[1].Sched, false)
	return FprintRailStats(w,
		fmt.Sprintf("per-rail utilization, mha, %s, rail1@node0 down", SizeLabel(m)),
		stats[:4*2]) // first four nodes keep the table readable
}

func scenarioColumns() []string {
	var cols []string
	for _, sc := range FaultScenarios() {
		cols = append(cols, sc.Name)
	}
	return append(cols, "1-rail machine")
}

func init() {
	register("ext-faults", "resilience: allgather under rail faults (down/degraded, aware vs naive)", runFaultSweep)
}
