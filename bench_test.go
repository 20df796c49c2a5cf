// Repository-level benchmarks: one testing.B per table/figure of the
// paper, plus the DESIGN.md ablations. Each benchmark runs its figure's
// representative configuration at Quick scale (so `go test -bench=.`
// completes in minutes) and reports the simulated virtual latency as a
// custom metric "virt-us" — wall-clock ns/op measures only the simulator
// itself. Regenerate the full-scale tables with `mha bench`.
package mha

import (
	"fmt"
	"testing"

	"mha/internal/apps/dltrain"
	"mha/internal/apps/matvec"
	"mha/internal/bench"
	"mha/internal/collectives"
	"mha/internal/core"
	"mha/internal/fabric"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
)

// reportVirt attaches the virtual-time result to the benchmark output.
func reportVirt(b *testing.B, d sim.Duration) {
	b.ReportMetric(d.Micros(), "virt-us")
}

func BenchmarkFig01PtPtBandwidth(b *testing.B) {
	prm := netmodel.Thor()
	var last float64
	for i := 0; i < b.N; i++ {
		last = bench.PtPtBandwidth(topology.New(2, 1, 2), prm, 4<<20)
	}
	b.ReportMetric(last, "MB/s")
}

func BenchmarkFig02RingTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := trace.New()
		w := mpi.New(mpi.Config{Topo: topology.New(2, 2, 2), Tracer: rec, Phantom: true})
		err := w.Run(func(p *mpi.Proc) {
			collectives.RingAllgather(p, w.CommWorld(), mpi.Phantom(256<<10), mpi.Phantom(256<<10*4))
		})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Len() == 0 {
			b.Fatal("no trace events")
		}
	}
}

func BenchmarkFig03PtPtLatency(b *testing.B) {
	prm := netmodel.Thor()
	var last sim.Duration
	for i := 0; i < b.N; i++ {
		last = bench.PtPtLatency(topology.New(2, 1, 2), prm, 4<<20)
	}
	reportVirt(b, last)
}

func BenchmarkFig05OffloadTuning(b *testing.B) {
	prm := netmodel.Thor()
	topo := topology.New(1, 8, 2)
	for i := 0; i < b.N; i++ {
		if d, _ := core.TuneOffload(topo, prm, 4<<20, 6); d <= 0 {
			b.Fatal("tuner found no offload")
		}
	}
}

func benchInter(b *testing.B, topo topology.Cluster, m int, cfg core.InterConfig) {
	prm := netmodel.Thor()
	var last sim.Duration
	for i := 0; i < b.N; i++ {
		last = core.MeasureInter(topo, prm, m, cfg)
	}
	reportVirt(b, last)
}

func BenchmarkFig08RDvsRing(b *testing.B) {
	topo := topology.New(4, 8, 2)
	b.Run("rd", func(b *testing.B) { benchInter(b, topo, 64<<10, core.InterConfig{LeaderAlg: core.ForceRD}) })
	b.Run("ring", func(b *testing.B) { benchInter(b, topo, 64<<10, core.InterConfig{LeaderAlg: core.ForceRing}) })
}

func BenchmarkFig09ModelIntra(b *testing.B) {
	prm := netmodel.Thor()
	topo := topology.New(1, 4, 2)
	var last sim.Duration
	for i := 0; i < b.N; i++ {
		last = core.MeasureIntra(topo, prm, 1<<20, core.AutoOffload)
	}
	reportVirt(b, last)
}

func BenchmarkFig10ModelInter(b *testing.B) {
	benchInter(b, topology.New(4, 8, 2), 64<<10, core.InterConfig{})
}

func benchProfileAllgather(b *testing.B, topo topology.Cluster, m int) {
	prm := netmodel.Thor()
	for _, prof := range bench.Profiles() {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			var last sim.Duration
			for i := 0; i < b.N; i++ {
				last = bench.AllgatherLatency(topo, prm, m, prof)
			}
			reportVirt(b, last)
		})
	}
}

func BenchmarkFig11IntraAllgather(b *testing.B) {
	benchProfileAllgather(b, topology.New(1, 8, 2), 4<<20)
}

func BenchmarkFig12Allgather256(b *testing.B) {
	benchProfileAllgather(b, topology.New(4, 8, 2), 64<<10)
}

func BenchmarkFig13Allgather512(b *testing.B) {
	benchProfileAllgather(b, topology.New(8, 8, 2), 64<<10)
}

func BenchmarkFig14Allgather1024(b *testing.B) {
	benchProfileAllgather(b, topology.New(8, 16, 2), 64<<10)
}

func BenchmarkFig15Allreduce(b *testing.B) {
	prm := netmodel.Thor()
	topo := topology.New(4, 8, 2)
	for _, prof := range bench.Profiles() {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			var last sim.Duration
			for i := 0; i < b.N; i++ {
				last = bench.AllreduceLatency(topo, prm, 1<<20, prof)
			}
			reportVirt(b, last)
		})
	}
}

func BenchmarkFig16MatVec(b *testing.B) {
	for _, prof := range bench.Profiles() {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				res, err := matvec.Run(matvec.Config{
					Rows: 1024, Cols: 32768,
					Topo: topology.New(4, 8, 2), Profile: prof, Phantom: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				gflops = res.GFLOPS
			}
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

func BenchmarkFig17DLTraining(b *testing.B) {
	for _, net := range dltrain.Networks() {
		net := net
		b.Run(net.Name, func(b *testing.B) {
			var imgs float64
			for i := 0; i < b.N; i++ {
				res, err := dltrain.Run(dltrain.Config{
					Net: net, Topo: topology.New(4, 8, 2), Profile: core.Profile(),
				})
				if err != nil {
					b.Fatal(err)
				}
				imgs = res.ImagesPerSec
			}
			b.ReportMetric(imgs, "img/s")
		})
	}
}

func BenchmarkAblationPhase2(b *testing.B) {
	topo := topology.New(4, 8, 2)
	for _, cfg := range []struct {
		name string
		c    core.InterConfig
	}{
		{"ring", core.InterConfig{LeaderAlg: core.ForceRing}},
		{"rd", core.InterConfig{LeaderAlg: core.ForceRD}},
		{"auto", core.InterConfig{}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) { benchInter(b, topo, 64<<10, cfg.c) })
	}
}

func BenchmarkAblationOverlap(b *testing.B) {
	topo := topology.New(4, 8, 2)
	b.Run("overlap", func(b *testing.B) {
		benchInter(b, topo, 64<<10, core.InterConfig{LeaderAlg: core.ForceRing})
	})
	b.Run("sequential", func(b *testing.B) {
		benchInter(b, topo, 64<<10, core.InterConfig{LeaderAlg: core.ForceRing, NoOverlap: true})
	})
}

func BenchmarkAblationOffload(b *testing.B) {
	prm := netmodel.Thor()
	topo := topology.New(1, 8, 2)
	for _, cfg := range []struct {
		name string
		d    float64
	}{{"none", 0}, {"analytic", core.AutoOffload}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var last sim.Duration
			for i := 0; i < b.N; i++ {
				last = core.MeasureIntra(topo, prm, 4<<20, cfg.d)
			}
			reportVirt(b, last)
		})
	}
}

func BenchmarkAblationStripe(b *testing.B) {
	for _, thr := range []struct {
		name string
		v    int
	}{{"16KB", 16 << 10}, {"never", 1 << 30}} {
		thr := thr
		b.Run(thr.name, func(b *testing.B) {
			prm := netmodel.Thor()
			prm.StripeThreshold = thr.v
			var last sim.Duration
			for i := 0; i < b.N; i++ {
				last = bench.PtPtLatency(topology.New(2, 1, 2), prm, 4<<20)
			}
			reportVirt(b, last)
		})
	}
}

func BenchmarkAblationRails(b *testing.B) {
	prm := netmodel.Thor()
	for _, h := range []int{1, 2, 4, 8} {
		h := h
		b.Run(fmt.Sprintf("H=%d", h), func(b *testing.B) {
			topo := topology.New(4, 8, h)
			var last sim.Duration
			for i := 0; i < b.N; i++ {
				last = core.MeasureInter(topo, prm, 256<<10, core.InterConfig{})
			}
			reportVirt(b, last)
		})
	}
}

func BenchmarkExtNUMAThreeLevel(b *testing.B) {
	topo := topology.Cluster{Nodes: 4, PPN: 16, HCAs: 2, Sockets: 2}
	if err := topo.Validate(); err != nil {
		b.Fatal(err)
	}
	prm := netmodel.NumaThor()
	m := 256 << 10
	measure := func(b *testing.B, alg func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)) {
		var last sim.Time
		for i := 0; i < b.N; i++ {
			w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
			err := w.Run(func(p *mpi.Proc) {
				alg(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size()))
			})
			if err != nil {
				b.Fatal(err)
			}
			last = w.Makespan()
		}
		reportVirt(b, sim.Duration(last))
	}
	b.Run("2level", func(b *testing.B) { measure(b, core.MHAInterAllgather) })
	b.Run("3level", func(b *testing.B) { measure(b, core.MHA3LevelAllgather) })
}

func BenchmarkExtCollectives(b *testing.B) {
	topo := topology.New(4, 8, 2)
	prm := netmodel.Thor()
	measure := func(b *testing.B, body func(p *mpi.Proc, w *mpi.World)) {
		var last sim.Time
		for i := 0; i < b.N; i++ {
			w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
			err := w.Run(func(p *mpi.Proc) {
				body(p, w)
			})
			if err != nil {
				b.Fatal(err)
			}
			last = w.Makespan()
		}
		reportVirt(b, sim.Duration(last))
	}
	b.Run("bcast-flat", func(b *testing.B) {
		measure(b, func(p *mpi.Proc, w *mpi.World) {
			collectives.BinomialBcast(p, w.CommWorld(), 0, mpi.Phantom(4<<20))
		})
	})
	b.Run("bcast-mha", func(b *testing.B) {
		measure(b, func(p *mpi.Proc, w *mpi.World) {
			core.MHABcast(p, w, 0, mpi.Phantom(4<<20))
		})
	})
	b.Run("alltoall-flat", func(b *testing.B) {
		measure(b, func(p *mpi.Proc, w *mpi.World) {
			n := 8 << 10 * p.Size()
			collectives.PairwiseAlltoall(p, w.CommWorld(), mpi.Phantom(n), mpi.Phantom(n))
		})
	})
	b.Run("alltoall-mha", func(b *testing.B) {
		measure(b, func(p *mpi.Proc, w *mpi.World) {
			n := 8 << 10 * p.Size()
			core.MHAAlltoall(p, w, mpi.Phantom(n), mpi.Phantom(n))
		})
	})
}

func BenchmarkExtJitterDistribution(b *testing.B) {
	prm := netmodel.Thor()
	prm.Jitter = 0.08
	topo := topology.New(4, 8, 2)
	var st bench.Stats
	for i := 0; i < b.N; i++ {
		st = bench.NoisyAllgather(topo, prm, 64<<10, core.Profile(), 5)
	}
	b.ReportMetric(st.Mean, "mean-us")
	b.ReportMetric(st.Std, "std-us")
}

func BenchmarkExtFabricTaper(b *testing.B) {
	for _, taper := range []float64{1, 4} {
		taper := taper
		b.Run(fmt.Sprintf("taper-%.0f", taper), func(b *testing.B) {
			prm := netmodel.Thor()
			tree := fabric.TwoLevel(1, taper)
			var last sim.Duration
			for i := 0; i < b.N; i++ {
				last = bench.FabricAllgatherLatency(topology.New(4, 8, 2), prm, 64<<10, &tree, "mha")
			}
			reportVirt(b, last)
		})
	}
}

// BenchmarkSimEngine measures raw simulator throughput: events/second for
// a ping-pong chain, the figure of merit for the substrate itself.
func BenchmarkSimEngine(b *testing.B) {
	prm := netmodel.Thor()
	topo := topology.New(2, 16, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
		err := w.Run(func(p *mpi.Proc) {
			c := w.CommWorld()
			next := (p.Rank() + 1) % p.Size()
			prev := (p.Rank() - 1 + p.Size()) % p.Size()
			for k := 0; k < 8; k++ {
				p.SendRecv(c, next, k, mpi.Phantom(1024), prev, k)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
