package mpi

import (
	"testing"

	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// jitterRun measures a small mixed workload (inter-node striped send,
// intra-node CMA, shm copies) under a given seed.
func jitterRun(t *testing.T, jitter float64, seed int64) sim.Time {
	t.Helper()
	prm := netmodel.Thor()
	prm.Jitter = jitter
	w := New(Config{Topo: topology.New(2, 2, 2), Params: prm, Phantom: true, Seed: seed})
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		switch p.Rank() {
		case 0:
			p.Send(c, 2, 0, Phantom(1<<20)) // inter-node striped
			p.Send(c, 1, 1, Phantom(1<<20)) // intra-node CMA
			s := p.ShmOpen("r", 1<<20)
			s.CopyIn(p, 0, Phantom(1<<20))
			s.Counter("ok").Add(1)
		case 1:
			p.Recv(c, 0, 1)
			s := p.ShmOpen("r", 1<<20)
			s.WaitCounter(p, "ok", 1)
			s.CopyOut(p, 0, Phantom(1<<20))
		case 2:
			p.Recv(c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Makespan()
}

func TestJitterZeroIsExact(t *testing.T) {
	a := jitterRun(t, 0, 0)
	b := jitterRun(t, 0, 12345)
	if a != b {
		t.Fatalf("zero jitter varies with seed: %v vs %v", a, b)
	}
}

func TestJitterSameSeedReproduces(t *testing.T) {
	a := jitterRun(t, 0.1, 7)
	b := jitterRun(t, 0.1, 7)
	if a != b {
		t.Fatalf("same seed differs: %v vs %v", a, b)
	}
}

func TestJitterDifferentSeedsDiffer(t *testing.T) {
	a := jitterRun(t, 0.1, 1)
	b := jitterRun(t, 0.1, 2)
	if a == b {
		t.Fatalf("different seeds identical: %v", a)
	}
}

func TestJitterOnlySlowsDown(t *testing.T) {
	// The noise factor is in [1, 1+2J], so any jittered run is at least as
	// slow as the noiseless one and bounded by (1+2J) times it.
	base := jitterRun(t, 0, 0)
	for seed := int64(0); seed < 8; seed++ {
		j := jitterRun(t, 0.1, seed)
		if j < base {
			t.Fatalf("seed %d: jittered run %v faster than noiseless %v", seed, j, base)
		}
		if float64(j) > 1.2*float64(base)+1000 {
			t.Fatalf("seed %d: jittered run %v beyond the 1+2J bound of %v", seed, j, base)
		}
	}
}

func TestJitterValidation(t *testing.T) {
	p := netmodel.Thor()
	p.Jitter = -0.1
	if p.Validate() == nil {
		t.Fatal("negative jitter should fail validation")
	}
	p.Jitter = 1.5
	if p.Validate() == nil {
		t.Fatal("jitter > 1 should fail validation")
	}
}
