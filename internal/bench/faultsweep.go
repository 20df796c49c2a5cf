package bench

import (
	"fmt"
	"io"

	"mha/internal/compose"
	"mha/internal/faults"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/verify"
)

// faultSweepAlgs are the registered variants the resilience sweep
// compares, in presentation order.
var faultSweepAlgs = []string{"mha", "two-level", "multi-leader", "ring"}

// FaultedLatency times one run of a registered variant with m bytes per
// rank (buffers sized by compose.Geometry for its collective) on a
// world running under the given fault schedule, returning the completion
// time and the per-rail utilization summary. blind selects the naive
// (health-unaware) transport baseline.
func FaultedLatency(topo topology.Cluster, prm *netmodel.Params, m int,
	alg verify.Algorithm, sched *faults.Schedule, blind bool) (sim.Duration, []mpi.RailStat) {
	w := mpi.New(mpi.Config{
		Topo:       topo,
		Params:     prm,
		Phantom:    true,
		Faults:     sched,
		FaultBlind: blind,
	})
	sendLen, recvLen := compose.Geometry(alg.Coll, topo.Size(), m)
	lat := makespan(w, func(p *mpi.Proc) {
		alg.Run(p, w, mpi.Phantom(sendLen), mpi.Phantom(recvLen))
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

	for _, name := range faultSweepAlgs {
		alg := row(name)
		t := NewTable(
			fmt.Sprintf("degraded-mode allgather latency (us), %s, %d nodes x %d ppn x 2 rails",
				name, topo.Nodes, topo.PPN),
			append([]string{"size"}, scenarioColumns()...)...)
		for _, m := range sizes {
			row := []interface{}{SizeLabel(m)}
			for _, sc := range FaultScenarios() {
				lat, _ := FaultedLatency(topo, prm, m, alg, sc.Sched, sc.Blind)
				row = append(row, lat.Micros())
			}
			lat1, _ := FaultedLatency(oneRail, prm, m, alg, nil, false)
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
	_, stats := FaultedLatency(topo, prm, m, row("mha"), FaultScenarios()[1].Sched, false)
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
