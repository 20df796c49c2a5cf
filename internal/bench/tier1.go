package bench

import (
	"encoding/json"
	"io"

	"mha/internal/cluster"
	"mha/internal/core"
	"mha/internal/fabric"
	"mha/internal/faults"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// Tier1Metric is one headline modeled-latency probe: a named point taken
// from a paper experiment, measured at a fixed shape and size so future
// PRs can diff the repo's performance trajectory.
type Tier1Metric struct {
	// ID names the probe after the experiment it samples.
	ID string
	// Micros is the modeled (virtual-time) latency in microseconds.
	Micros float64
}

// Tier1 measures the headline probes at the given scale. The set is small
// on purpose: one representative point per major experiment family
// (pt2pt, intra-node, inter-node allgather per library, allreduce,
// resilience under a fault schedule). Every probe is virtual time and so
// deterministic; what our own code costs on the wall clock is the
// benchmark module's ledger (benchmark/probes.go), not this one's.
func Tier1(sc Scale) []Tier1Metric {
	prm := netmodel.Thor()
	profs := Profiles() // HPC-X, MVAPICH2-X, MHA
	inter := sc.Cluster(8, 32, 2)
	intra := topology.New(1, 16, 2)
	demoFaults := faults.MustNew(
		faults.Fault{Kind: faults.Down, Node: 0, Rail: 1, Until: sim.Time(40 * sim.Microsecond)},
		faults.Fault{Kind: faults.Degrade, Node: faults.AllNodes, Rail: 1,
			Fraction: 0.5, From: sim.Time(40 * sim.Microsecond)},
	)
	mhaFaulted, _ := FaultedLatency(topology.New(4, 4, 2), prm, 64<<10, row("mha"), demoFaults, false)

	out := []Tier1Metric{
		{"fig3-pt2pt-2hca-64k", PtPtLatency(topology.New(2, 1, 2), prm, 64<<10).Micros()},
		{"fig3-pt2pt-1hca-64k", PtPtLatency(topology.New(2, 1, 1), prm, 64<<10).Micros()},
		{"fig11d-intra-mha-64k", AllgatherLatency(intra, prm, 64<<10, core.Profile()).Micros()},
		{"ext-faults-mha-4x4-64k", mhaFaulted.Micros()},
	}
	for _, prof := range profs {
		out = append(out, Tier1Metric{
			ID:     "fig12a-allgather-" + prof.Name + "-8k",
			Micros: AllgatherLatency(inter, prm, 8<<10, prof).Micros(),
		})
		out = append(out, Tier1Metric{
			ID:     "fig12b-allgather-" + prof.Name + "-256k",
			Micros: AllgatherLatency(inter, prm, 256<<10, prof).Micros(),
		})
	}
	out = append(out, Tier1Metric{
		ID:     "fig15-allreduce-mha-1m",
		Micros: AllreduceLatency(inter, prm, 1<<20, core.Profile()).Micros(),
	})
	// Fabric probe: the locality-ring allgather on a 2:1-oversubscribed
	// fat-tree.
	ftSpec := fabric.Spec{Kind: fabric.FatTree, Arity: 2, Levels: 2, Over: []float64{2}}
	out = append(out, Tier1Metric{
		ID:     "fabric-ft-ag-4x2x2-64k",
		Micros: FabricAllgatherLatency(topology.New(4, 2, 2), prm, 64<<10, &ftSpec, "locality-ring").Micros(),
	})
	clusterTopo := topology.New(8, 4, 2)
	for _, policy := range []string{cluster.Packed, cluster.RailAware} {
		d, err := ClusterBurstMakespan(clusterTopo, policy)
		if err != nil {
			continue // a scheduler regression shows up as a missing probe
		}
		out = append(out, Tier1Metric{
			ID:     "cluster-" + policy + "-burst-makespan",
			Micros: d.Micros(),
		})
	}
	// Composition-layer probe: the derived reduce-scatter on a small
	// dual-rail machine.
	if d, err := ComposeLatency("compose-rs", topology.New(4, 2, 2), 64<<10); err == nil {
		out = append(out, Tier1Metric{
			ID:     "compose-rs-4x2x2-64k",
			Micros: d.Micros(),
		})
	}
	return out
}

// WriteTier1 renders the probes as a JSON object (probe id -> modeled
// latency in microseconds, keys sorted) — the BENCH_tier1.json format.
func WriteTier1(w io.Writer, sc Scale) error {
	m := map[string]float64{}
	for _, p := range Tier1(sc) {
		m[p.ID] = p.Micros
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
