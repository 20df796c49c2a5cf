package machines

import (
	"testing"

	"mha/internal/core"
	"mha/internal/mpi"
	"mha/internal/sim"
)

func TestCatalogValidatesAndResolves(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("catalog has %d entries", len(names))
	}
	for _, n := range names {
		m, ok := Get(n)
		if !ok {
			t.Fatalf("Get(%q) failed", n)
		}
		if m.Name != n || m.Description == "" {
			t.Fatalf("%q metadata incomplete: %+v", n, m)
		}
	}
	if _, ok := Get("nonexistent"); ok {
		t.Fatal("bogus machine resolved")
	}
	if len(All()) != len(names) {
		t.Fatal("All inconsistent with Names")
	}
}

func TestThorIsThePaperTestbed(t *testing.T) {
	m, _ := Get("thor")
	if m.Topo.Nodes != 32 || m.Topo.PPN != 32 || m.Topo.HCAs != 2 {
		t.Fatalf("thor topology %v", m.Topo)
	}
	if m.Topo.Size() != 1024 {
		t.Fatal("thor should have 1024 ranks")
	}
}

func TestEveryMachineRunsAnAllgather(t *testing.T) {
	// Downscale node counts so the test stays fast; params stay as preset.
	for _, m := range All() {
		topo := m.Topo
		topo.Nodes = 2
		if topo.PPN > 8 {
			topo.PPN = 8
		}
		w := mpi.New(mpi.Config{Topo: topo, Params: m.Params, Phantom: true})
		err := w.Run(func(p *mpi.Proc) {
			core.MHAAllgather(p, w, mpi.Phantom(64<<10), mpi.Phantom(64<<10*p.Size()))
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if w.Makespan() == 0 {
			t.Fatalf("%s: zero latency", m.Name)
		}
	}
}

func TestMoreRailsFasterAcrossMachines(t *testing.T) {
	// The 8-rail ThetaGPU preset should beat 2-rail Thor on the same
	// per-rank workload at equal shape.
	theta, _ := Get("thetagpu")
	thor, _ := Get("thor")
	measure := func(m Machine) sim.Time {
		topo := m.Topo
		topo.Nodes, topo.PPN = 4, 8
		w := mpi.New(mpi.Config{Topo: topo, Params: m.Params, Phantom: true})
		if err := w.Run(func(p *mpi.Proc) {
			core.MHAAllgather(p, w, mpi.Phantom(256<<10), mpi.Phantom(256<<10*p.Size()))
		}); err != nil {
			t.Fatal(err)
		}
		return w.Makespan()
	}
	if measure(theta) >= measure(thor) {
		t.Fatal("8-rail HDR200 preset not faster than 2-rail HDR100")
	}
}
