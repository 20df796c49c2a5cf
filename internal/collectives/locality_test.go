package collectives

import (
	"fmt"
	"testing"

	"mha/internal/fabric"
	"mha/internal/mpi"
	"mha/internal/sim"
	"mha/internal/topology"
)

var localityAlgorithms = map[string]func(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf){
	"locality-p2p":   LocalityP2PAllgather,
	"locality-ring":  LocalityRingAllgather,
	"locality-bruck": LocalityBruckAllgather,
	"hier-bruck-ml":  HierBruckMLAllgather,
}

// The locality family must be byte-correct on every rank layout: the node
// groups are derived from the communicator, not assumed contiguous.
func TestLocalityAllgathersMatchOracle(t *testing.T) {
	topos := map[string]topology.Cluster{
		"1x1-block":  topology.New(1, 1, 1),
		"1x5-block":  topology.New(1, 5, 2),
		"2x1-block":  topology.New(2, 1, 2),
		"4x2-block":  topology.New(4, 2, 2),
		"3x3-block":  topology.New(3, 3, 2),
		"5x2-cyclic": {Nodes: 5, PPN: 2, HCAs: 2, Layout: topology.Cyclic},
		"4x4-cyclic": {Nodes: 4, PPN: 4, HCAs: 2, Layout: topology.Cyclic},
		"2x2-custom": {Nodes: 2, PPN: 2, HCAs: 2, Layout: topology.Custom,
			Ranks: [][]int{{3, 0}, {2, 1}}},
	}
	for name, alg := range localityAlgorithms {
		for tname, topo := range topos {
			for _, m := range []int{1, 8, 1024} {
				t.Run(fmt.Sprintf("%s/%s/m=%d", name, tname, m), func(t *testing.T) {
					w := mpi.New(mpi.Config{Topo: topo})
					n := topo.Size()
					want := string(expectedAllgather(n, m))
					err := w.Run(func(p *mpi.Proc) {
						recv := mpi.NewBuf(n * m)
						alg(p, w.CommWorld(), mpi.Bytes(pattern(p.Rank(), m)), recv)
						if string(recv.Data()) != want {
							t.Errorf("rank %d wrong result", p.Rank())
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// On a sub-communicator the groups are uneven (node 0 contributes three
// ranks, node 1 only one), which exercises the variable-size exchange and
// the hier-bruck-ml fallback.
func TestLocalityAllgathersOnSubComm(t *testing.T) {
	members := []int{0, 2, 3, 5} // nodes: 0,0,0,1 under block 2x3
	for name, alg := range localityAlgorithms {
		t.Run(name, func(t *testing.T) {
			w := mpi.New(mpi.Config{Topo: topology.New(2, 3, 2)})
			m := 64
			want := string(expectedAllgather(len(members), m))
			err := w.Run(func(p *mpi.Proc) {
				c := p.World().CommNamed("sub", func() []int { return members })
				cr := c.Rank(p)
				if cr < 0 {
					return
				}
				recv := mpi.NewBuf(len(members) * m)
				alg(p, c, mpi.Bytes(pattern(cr, m)), recv)
				if string(recv.Data()) != want {
					t.Errorf("comm rank %d wrong result", cr)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Mixed 1/2-HCA nodes with asymmetric rail bandwidth: the transport layer
// clamps and re-weights underneath, the collective must stay byte-exact.
func TestLocalityAllgathersHeterogeneous(t *testing.T) {
	topo := topology.Cluster{
		Nodes: 4, PPN: 2, HCAs: 2,
		NodeHCAs: []int{2, 1, 2, 1},
		RailBW:   []float64{1, 0.5},
		Layout:   topology.Cyclic,
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, alg := range localityAlgorithms {
		t.Run(name, func(t *testing.T) {
			w := mpi.New(mpi.Config{Topo: topo})
			n := topo.Size()
			m := 512
			want := string(expectedAllgather(n, m))
			err := w.Run(func(p *mpi.Proc) {
				recv := mpi.NewBuf(n * m)
				alg(p, w.CommWorld(), mpi.Bytes(pattern(p.Rank(), m)), recv)
				if string(recv.Data()) != want {
					t.Errorf("rank %d wrong result", p.Rank())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The family's reason to exist: on an oversubscribed fat-tree with a
// cyclic rank layout, every flat-algorithm hop crosses nodes and queues on
// the tapered trunks, while the locality variants cross each trunk once
// per node block. At 64KB at least one locality variant must beat the best
// conventional flat algorithm.
func TestLocalityBeatsFlatOnOversubscribedFatTree(t *testing.T) {
	topo := topology.Cluster{Nodes: 8, PPN: 4, HCAs: 2, Layout: topology.Cyclic}
	spec := fabric.MustParse("ft:arity=2,levels=2,over=2")
	m := 64 << 10
	measure := func(alg func(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf)) sim.Time {
		w := mpi.New(mpi.Config{Topo: topo, Fabric: &spec, Phantom: true})
		err := w.Run(func(p *mpi.Proc) {
			alg(p, w.CommWorld(), mpi.Phantom(m), mpi.Phantom(m*p.Size()))
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Makespan()
	}
	bestFlat := sim.Time(0)
	for _, run := range []func(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf){
		RingAllgather, RDAllgather, BruckAllgather, DirectSpreadAllgather, NeighborExchangeAllgather,
	} {
		if tt := measure(run); bestFlat == 0 || tt < bestFlat {
			bestFlat = tt
		}
	}
	bestLoc := sim.Time(0)
	times := map[string]sim.Time{}
	for name, alg := range localityAlgorithms {
		tt := measure(alg)
		times[name] = tt
		if bestLoc == 0 || tt < bestLoc {
			bestLoc = tt
		}
	}
	if bestLoc >= bestFlat {
		t.Fatalf("locality family (%v, best of %v) not faster than best flat (%v)",
			bestLoc, times, bestFlat)
	}
}
