package bench

import (
	"fmt"
	"io"

	"mha/internal/fabric"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/verify"
)

// FabricAllgatherLatency measures one allgather of m bytes per rank by
// registered algorithm name on a cluster whose inter-node traffic
// crosses the given fabric (nil = flat non-blocking).
func FabricAllgatherLatency(topo topology.Cluster, prm *netmodel.Params, m int, spec *fabric.Spec, alg string) sim.Duration {
	run := row(alg).Run
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true, Fabric: spec})
	return makespan(w, func(p *mpi.Proc) {
		run(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size()))
	})
}

// row resolves a registered variant by name; the experiments name only
// registered ones.
func row(name string) verify.Algorithm {
	a, ok := verify.ByName(name)
	if !ok {
		panic(fmt.Sprintf("bench: %q is not registered", name))
	}
	return a
}

// fabricSweepSpecs returns the fabric rows of the sweep for a cluster of
// the given node count: flat, fat-trees of increasing taper, and a
// dragonfly that tiles the nodes.
func fabricSweepSpecs(nodes int) []struct {
	label string
	spec  *fabric.Spec
} {
	ft := func(over float64) *fabric.Spec {
		return &fabric.Spec{Kind: fabric.FatTree, Arity: 2, Levels: 2, Over: []float64{over}}
	}
	dfly := &fabric.Spec{Kind: fabric.Dragonfly, Groups: 2, Routers: 2,
		NodesPer: nodes / 4, LocalOver: 1, GlobalOver: 2}
	return []struct {
		label string
		spec  *fabric.Spec
	}{
		{"flat", nil},
		{"ft 1:1", ft(1)},
		{"ft 2:1", ft(2)},
		{"ft 4:1", ft(4)},
		{"dfly 2:1g", dfly},
	}
}

// fabricSweepAlgs are the algorithm columns of the sweep: the two flat
// reference algorithms and the locality family's representatives.
var fabricSweepAlgs = []string{"rd", "ring", "locality-ring", "locality-bruck", "hier-bruck-ml"}

func runFabricSweep(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	nodes, ppn := 8, 4
	if sc == Quick {
		nodes, ppn = 4, 2
	}
	m := 64 << 10
	for _, layout := range []topology.Layout{topology.Block, topology.Cyclic} {
		topo := topology.Cluster{Nodes: nodes, PPN: ppn, HCAs: 2, Layout: layout}
		if err := topo.Validate(); err != nil {
			return err
		}
		cols := append([]string{"fabric"}, fabricSweepAlgs...)
		t := NewTable(fmt.Sprintf("Fabric sweep: %v, %s/rank (us)", topo, SizeLabel(m)), cols...)
		t.Notes = "locality variants route most bytes under the leaf switches; " +
			"flat rd/ring pay the full taper on every cross-leaf step"
		for _, row := range fabricSweepSpecs(nodes) {
			cells := []interface{}{row.label}
			for _, alg := range fabricSweepAlgs {
				cells = append(cells, FabricAllgatherLatency(topo, prm, m, row.spec, alg).Micros())
			}
			t.Add(cells...)
		}
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}
