package bench

import (
	"fmt"
	"io"
	"sort"

	"mha/internal/apps/bpmf"
	"mha/internal/apps/dltrain"
	"mha/internal/apps/matvec"
	"mha/internal/apps/stencil"
	"mha/internal/collectives"
	"mha/internal/core"
	"mha/internal/fabric"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/perfmodel"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
)

// An Experiment regenerates one table or figure of the paper (or one
// ablation from DESIGN.md).
type Experiment struct {
	// ID is the figure identifier ("1", "8a", "14b", "abl-rails", ...).
	ID string
	// Title describes what the paper's figure shows.
	Title string
	// Run executes the experiment at the given scale, writing its table.
	Run func(w io.Writer, sc Scale) error
}

var registry []Experiment

func register(id, title string, run func(w io.Writer, sc Scale) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Registry returns every experiment in figure order.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func init() {
	register("1", "pt2pt bandwidth: intra-node CMA vs inter-node 1/2 HCAs", runFig1)
	register("2", "ring allgather timeline, 2 nodes 2 PPN (TAU-style)", runFig2)
	register("3", "pt2pt latency: inter-node 1 vs 2 HCAs", runFig3)
	register("5", "offload-size vs latency tuning curve (MHA-intra)", runFig5)
	register("8a", "RD vs Ring in inter-leader exchange, 16 nodes 32 PPN", runFig8(16))
	register("8b", "RD vs Ring in inter-leader exchange, 32 nodes 32 PPN", runFig8(32))
	register("9", "model validation: MHA-intra, 4 processes", runFig9)
	register("10", "model validation: MHA-inter, 8 nodes 32 PPN", runFig10)
	register("11a", "intra-node allgather, 2 processes", runFig11(2))
	register("11b", "intra-node allgather, 4 processes", runFig11(4))
	register("11c", "intra-node allgather, 8 processes", runFig11(8))
	register("11d", "intra-node allgather, 16 processes", runFig11(16))
	register("12a", "inter-node allgather, 256 procs (8x32), medium messages", runFigAG(8, geometric(256, 8192)))
	register("12b", "inter-node allgather, 256 procs (8x32), large messages", runFigAG(8, geometric(16<<10, 256<<10)))
	register("13a", "inter-node allgather, 512 procs (16x32), medium messages", runFigAG(16, geometric(256, 8192)))
	register("13b", "inter-node allgather, 512 procs (16x32), large messages", runFigAG(16, geometric(16<<10, 256<<10)))
	register("14a", "inter-node allgather, 1024 procs (32x32), medium messages", runFigAG(32, geometric(256, 8192)))
	register("14b", "inter-node allgather, 1024 procs (32x32), large messages", runFigAG(32, geometric(16<<10, 256<<10)))
	register("15a", "allreduce, 256 procs (8x32)", runFig15(8))
	register("15b", "allreduce, 512 procs (16x32)", runFig15(16))
	register("15c", "allreduce, 1024 procs (32x32)", runFig15(32))
	register("16a", "matvec strong scaling, 1024x32768", runFig16Strong)
	register("16b", "matvec weak scaling", runFig16Weak)
	register("17a", "DL training images/sec, ResNet-50", runFig17(0))
	register("17b", "DL training images/sec, ResNet-101", runFig17(1))
	register("17c", "DL training images/sec, ResNet-152", runFig17(2))
	register("abl-phase2", "ablation: phase-2 algorithm (ring/rd/auto)", runAblPhase2)
	register("abl-overlap", "ablation: phase-2/3 overlap on vs off", runAblOverlap)
	register("abl-offload", "ablation: HCA offload none/analytic/tuned", runAblOffload)
	register("abl-phase1", "ablation: phase-1 MHA-intra vs plain gather", runAblPhase1)
	register("abl-stripe", "ablation: multirail striping threshold", runAblStripe)
	register("abl-rails", "ablation: rail count H = 1/2/4/8 (ThetaGPU-like)", runAblRails)
	register("abl-leaders", "ablation: multi-leader group count (Kandalla) vs MHA", runAblLeaders)
	register("ext-numa", "extension: 3-level NUMA-aware design vs 2-level (paper future work)", runExtNuma)
	register("ext-coll", "extension: MHA bcast/alltoall vs flat baselines (paper future work)", runExtColl)
	register("ext-noise", "extension: robustness of the comparison under OS/fabric jitter", runExtNoise)
	register("ext-fabric", "extension: fat-tree oversubscription sensitivity", runExtFabric)
	register("fabric", "fabric x algorithm sweep: locality family vs flat on structured networks", runFabricSweep)
	register("ext-overhead", "extension: per-message software overhead sensitivity", runExtOverhead)
	register("ext-apps", "extension: library sensitivity of all application kernels", runExtApps)
}

func runFig1(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	t := NewTable("Figure 1: pt2pt bandwidth (MB/s)",
		"size", "intra-node CMA", "inter-node 1 HCA", "inter-node 2 HCAs")
	t.Notes = "paper: CMA ~= 1 HCA; 2 HCAs double bandwidth beyond the 16KB striping point"
	for _, m := range sc.Sizes(geometric(8<<10, 4<<20)) {
		intra := PtPtBandwidth(topology.New(1, 2, 2), prm, m)
		one := PtPtBandwidth(topology.New(2, 1, 1), prm, m)
		two := PtPtBandwidth(topology.New(2, 1, 2), prm, m)
		t.Add(SizeLabel(m), intra, one, two)
	}
	return t.Fprint(w)
}

func runFig2(w io.Writer, sc Scale) error {
	rec := trace.New()
	world := mpi.New(mpi.Config{Topo: topology.New(2, 2, 2), Tracer: rec})
	m := 256 << 10
	err := world.Run(func(p *mpi.Proc) {
		recv := mpi.NewBuf(m * p.Size())
		send := mpi.NewBuf(m)
		collectives.RingAllgather(p, world.CommWorld(), send, recv)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== Figure 2: ring allgather timeline, 2 nodes 2 PPN, 256KB ==")
	fmt.Fprintln(w, "paper: the flat ring serializes on the slower intra-node hops")
	_, err = fmt.Fprint(w, rec.Timeline(100))
	return err
}

func runFig3(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	t := NewTable("Figure 3: inter-node pt2pt latency (us)",
		"size", "1 HCA", "2 HCAs", "reduction")
	t.Notes = "paper: striping halves large-message latency from 16KB up"
	for _, m := range sc.Sizes(geometric(8<<10, 4<<20)) {
		one := PtPtLatency(topology.New(2, 1, 1), prm, m)
		two := PtPtLatency(topology.New(2, 1, 2), prm, m)
		t.Add(SizeLabel(m), one.Micros(), two.Micros(), Improvement(one, two))
	}
	return t.Fprint(w)
}

func runFig5(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := sc.IntraCluster(8, 2)
	m := 4 << 20
	best, curve := core.TuneOffload(topo, prm, m, 8)
	pm := perfmodel.New(prm, topo)
	t := NewTable(fmt.Sprintf("Figure 5: offload sweep, %d procs, %s", topo.PPN, SizeLabel(m)),
		"offload d", "measured (us)", "model (us)")
	t.Notes = fmt.Sprintf("tuned optimum d=%.2f; analytic Eq.(1) d=%.2f", best, pm.OffloadD(m))
	sort.Slice(curve, func(i, j int) bool { return curve[i].D < curve[j].D })
	for _, pt := range curve {
		t.Add(fmt.Sprintf("%.2f", pt.D), pt.Latency.Micros(), pm.MHAIntraWithOffload(m, pt.D).Micros())
	}
	return t.Fprint(w)
}

func runFig8(nodes int) func(io.Writer, Scale) error {
	return func(w io.Writer, sc Scale) error {
		prm := netmodel.Thor()
		topo := sc.Cluster(nodes, 32, 2)
		t := NewTable(fmt.Sprintf("Figure 8: RD vs Ring in phase 2, %v", topo),
			"size/rank", "RD (us)", "Ring (us)", "winner")
		t.Notes = "paper: RD wins small messages, Ring wins large (more overlap)"
		for _, m := range sc.Sizes(geometric(64, 1<<20)) {
			rd := core.MeasureInter(topo, prm, m, core.InterConfig{LeaderAlg: core.ForceRD})
			ring := core.MeasureInter(topo, prm, m, core.InterConfig{LeaderAlg: core.ForceRing})
			winner := "rd"
			if ring < rd {
				winner = "ring"
			}
			t.Add(SizeLabel(m), rd.Micros(), ring.Micros(), winner)
		}
		return t.Fprint(w)
	}
}

func runFig9(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := topology.New(1, 4, 2)
	pm := perfmodel.New(prm, topo)
	t := NewTable("Figure 9: model validation, MHA-intra, 4 processes",
		"size", "actual (us)", "predicted (us)", "ratio")
	for _, m := range sc.Sizes(geometric(16<<10, 16<<20)) {
		actual := core.MeasureIntra(topo, prm, m, core.AutoOffload)
		pred := pm.MHAIntra(m)
		t.Add(SizeLabel(m), actual.Micros(), pred.Micros(),
			fmt.Sprintf("%.2f", float64(actual)/float64(pred)))
	}
	return t.Fprint(w)
}

func runFig10(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := sc.Cluster(8, 32, 2)
	pm := perfmodel.New(prm, topo)
	t := NewTable(fmt.Sprintf("Figure 10: model validation, MHA-inter, %v", topo),
		"size", "actual (us)", "predicted (us)", "ratio")
	t.Notes = "predicted = min(pipeline-form Eq.6, Eq.7); tuned algorithm on both sides"
	for _, m := range sc.Sizes(geometric(1<<10, 512<<10)) {
		actual := core.MeasureInter(topo, prm, m, core.InterConfig{})
		pred := pm.MHAInterRing(m)
		if rd := pm.MHAInterRD(m); rd < pred {
			pred = rd
		}
		t.Add(SizeLabel(m), actual.Micros(), pred.Micros(),
			fmt.Sprintf("%.2f", float64(actual)/float64(pred)))
	}
	return t.Fprint(w)
}

func runFig11(ppn int) func(io.Writer, Scale) error {
	return func(w io.Writer, sc Scale) error {
		prm := netmodel.Thor()
		topo := sc.IntraCluster(ppn, 2)
		t := NewTable(fmt.Sprintf("Figure 11: intra-node allgather, %d processes", ppn),
			"size", "HPC-X (us)", "MVAPICH2-X (us)", "MHA (us)", "vs HPC-X", "vs MVAPICH2-X")
		sizes := geometric(256<<10, 16<<20)
		for _, m := range sc.Sizes(sizes) {
			var lat []interface{}
			lat = append(lat, SizeLabel(m))
			var vals []float64
			for _, prof := range Profiles() {
				d := AllgatherLatency(topo, prm, m, prof)
				vals = append(vals, d.Micros())
				lat = append(lat, d.Micros())
			}
			lat = append(lat, fmt.Sprintf("%.0f%%", (1-vals[2]/vals[0])*100))
			lat = append(lat, fmt.Sprintf("%.0f%%", (1-vals[2]/vals[1])*100))
			t.Add(lat...)
		}
		return t.Fprint(w)
	}
}

func runFigAG(nodes int, sizes []int) func(io.Writer, Scale) error {
	return func(w io.Writer, sc Scale) error {
		prm := netmodel.Thor()
		topo := sc.Cluster(nodes, 32, 2)
		t := NewTable(fmt.Sprintf("Figures 12-14: allgather, %v (%d procs)", topo, topo.Size()),
			"size/rank", "HPC-X (us)", "MVAPICH2-X (us)", "MHA (us)", "vs HPC-X", "vs MVAPICH2-X")
		for _, m := range sc.Sizes(sizes) {
			var vals []float64
			row := []interface{}{SizeLabel(m)}
			for _, prof := range Profiles() {
				d := AllgatherLatency(topo, prm, m, prof)
				vals = append(vals, d.Micros())
				row = append(row, d.Micros())
			}
			row = append(row, fmt.Sprintf("%.0f%%", (1-vals[2]/vals[0])*100),
				fmt.Sprintf("%.0f%%", (1-vals[2]/vals[1])*100))
			t.Add(row...)
		}
		return t.Fprint(w)
	}
}

func runFig15(nodes int) func(io.Writer, Scale) error {
	return func(w io.Writer, sc Scale) error {
		prm := netmodel.Thor()
		topo := sc.Cluster(nodes, 32, 2)
		t := NewTable(fmt.Sprintf("Figure 15: allreduce, %v (%d procs)", topo, topo.Size()),
			"size", "HPC-X (us)", "MVAPICH2-X (us)", "MHA (us)", "vs HPC-X", "vs MVAPICH2-X")
		t.Notes = "MHA = ring reduce-scatter + MHA allgather (Section 5.4)"
		for _, n := range sc.Sizes(geometric(64<<10, 1<<20)) {
			var vals []float64
			row := []interface{}{SizeLabel(n)}
			for _, prof := range Profiles() {
				d := AllreduceLatency(topo, prm, n, prof)
				vals = append(vals, d.Micros())
				row = append(row, d.Micros())
			}
			row = append(row, fmt.Sprintf("%.0f%%", (1-vals[2]/vals[0])*100),
				fmt.Sprintf("%.0f%%", (1-vals[2]/vals[1])*100))
			t.Add(row...)
		}
		return t.Fprint(w)
	}
}

// fig16Shapes returns the (topology, cols) points of the scaling sweep.
func fig16Shapes(sc Scale, weak bool) []topology.Cluster {
	if sc == Quick {
		return []topology.Cluster{
			topology.New(2, 8, 2), topology.New(4, 8, 2), topology.New(8, 8, 2),
		}
	}
	return []topology.Cluster{
		topology.New(8, 32, 2), topology.New(16, 32, 2), topology.New(32, 32, 2),
	}
}

func runFig16Strong(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	t := NewTable("Figure 16a: matvec strong scaling, 1024 x 32768 (GFLOP/s)",
		"procs", "HPC-X", "MVAPICH2-X", "MHA", "vs HPC-X", "vs MVAPICH2-X")
	for _, topo := range fig16Shapes(sc, false) {
		var vals []float64
		row := []interface{}{fmt.Sprint(topo.Size())}
		for _, prof := range Profiles() {
			res, err := matvec.Run(matvec.Config{
				Rows: 1024, Cols: 32768,
				Topo: topo, Params: prm, Profile: prof, Phantom: true,
			})
			if err != nil {
				return err
			}
			vals = append(vals, res.GFLOPS)
			row = append(row, res.GFLOPS)
		}
		row = append(row, fmt.Sprintf("%.2fx", vals[2]/vals[0]), fmt.Sprintf("%.2fx", vals[2]/vals[1]))
		t.Add(row...)
	}
	return t.Fprint(w)
}

func runFig16Weak(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	t := NewTable("Figure 16b: matvec weak scaling, cols = 128 x procs (GFLOP/s)",
		"procs (problem)", "HPC-X", "MVAPICH2-X", "MHA", "vs HPC-X", "vs MVAPICH2-X")
	for _, topo := range fig16Shapes(sc, true) {
		cols := 128 * topo.Size()
		var vals []float64
		row := []interface{}{fmt.Sprintf("%d (1024x%d)", topo.Size(), cols)}
		for _, prof := range Profiles() {
			res, err := matvec.Run(matvec.Config{
				Rows: 1024, Cols: cols,
				Topo: topo, Params: prm, Profile: prof, Phantom: true,
			})
			if err != nil {
				return err
			}
			vals = append(vals, res.GFLOPS)
			row = append(row, res.GFLOPS)
		}
		row = append(row, fmt.Sprintf("%.2fx", vals[2]/vals[0]), fmt.Sprintf("%.2fx", vals[2]/vals[1]))
		t.Add(row...)
	}
	return t.Fprint(w)
}

func runFig17(netIdx int) func(io.Writer, Scale) error {
	return func(w io.Writer, sc Scale) error {
		prm := netmodel.Thor()
		net := dltrain.Networks()[netIdx]
		t := NewTable(fmt.Sprintf("Figure 17: DL training, %s (%.1fM params), batch 16", net.Name, float64(net.Params)/1e6),
			"procs", "MVAPICH2-X (img/s)", "MHA (img/s)", "improvement")
		t.Notes = "paper compares only MVAPICH2-X and MHA (HPC-X + Horovod did not run)"
		for _, topo := range fig16Shapes(sc, false) {
			run := func(prof collectives.Profile) (float64, error) {
				res, err := dltrain.Run(dltrain.Config{
					Net: net, Topo: topo, Params: prm, Profile: prof, Steps: 2,
				})
				return res.ImagesPerSec, err
			}
			mvp, err := run(collectives.MVAPICH2X())
			if err != nil {
				return err
			}
			mha, err := run(core.Profile())
			if err != nil {
				return err
			}
			t.Add(fmt.Sprint(topo.Size()), mvp, mha, fmt.Sprintf("%.2f%%", (mha/mvp-1)*100))
		}
		return t.Fprint(w)
	}
}

func runAblPhase2(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := sc.Cluster(16, 32, 2)
	t := NewTable(fmt.Sprintf("Ablation: phase-2 algorithm, %v", topo),
		"size/rank", "ring (us)", "rd (us)", "auto (us)")
	for _, m := range sc.Sizes(geometric(256, 256<<10)) {
		ring := core.MeasureInter(topo, prm, m, core.InterConfig{LeaderAlg: core.ForceRing})
		rd := core.MeasureInter(topo, prm, m, core.InterConfig{LeaderAlg: core.ForceRD})
		auto := core.MeasureInter(topo, prm, m, core.InterConfig{})
		t.Add(SizeLabel(m), ring.Micros(), rd.Micros(), auto.Micros())
	}
	return t.Fprint(w)
}

func runAblOverlap(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := sc.Cluster(8, 32, 2)
	t := NewTable(fmt.Sprintf("Ablation: phase-2/3 overlap, %v", topo),
		"size/rank", "overlap (us)", "sequential (us)", "gain")
	for _, m := range sc.Sizes(geometric(4<<10, 256<<10)) {
		with := core.MeasureInter(topo, prm, m, core.InterConfig{LeaderAlg: core.ForceRing})
		without := core.MeasureInter(topo, prm, m, core.InterConfig{LeaderAlg: core.ForceRing, NoOverlap: true})
		t.Add(SizeLabel(m), with.Micros(), without.Micros(), Improvement(without, with))
	}
	return t.Fprint(w)
}

func runAblOffload(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := sc.IntraCluster(8, 2)
	t := NewTable("Ablation: HCA offload policy, 8 processes single node",
		"size", "no offload (us)", "analytic Eq.1 (us)", "tuned (us)")
	for _, m := range sc.Sizes(geometric(256<<10, 16<<20)) {
		none := core.MeasureIntra(topo, prm, m, 0)
		analytic := core.MeasureIntra(topo, prm, m, core.AutoOffload)
		bestD, _ := core.TuneOffload(topo, prm, m, 6)
		tuned := core.MeasureIntra(topo, prm, m, bestD)
		t.Add(SizeLabel(m), none.Micros(), analytic.Micros(), tuned.Micros())
	}
	return t.Fprint(w)
}

func runAblPhase1(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := sc.Cluster(8, 32, 2)
	t := NewTable(fmt.Sprintf("Ablation: phase-1 aggregation, %v", topo),
		"size/rank", "MHA-intra phase 1 (us)", "plain gather phase 1 (us)", "gain")
	for _, m := range sc.Sizes(geometric(4<<10, 256<<10)) {
		mhaP1 := core.MeasureInter(topo, prm, m, core.InterConfig{LeaderAlg: core.ForceRing})
		plain := core.MeasureInter(topo, prm, m, core.InterConfig{LeaderAlg: core.ForceRing, PlainPhase1: true})
		t.Add(SizeLabel(m), mhaP1.Micros(), plain.Micros(), Improvement(plain, mhaP1))
	}
	return t.Fprint(w)
}

func runAblStripe(w io.Writer, sc Scale) error {
	t := NewTable("Ablation: striping threshold (inter-node pt2pt latency, us)",
		"size", "4KB thr", "16KB thr (default)", "64KB thr", "no striping")
	topo := topology.New(2, 1, 2)
	for _, m := range sc.Sizes(geometric(4<<10, 4<<20)) {
		row := []interface{}{SizeLabel(m)}
		for _, thr := range []int{4 << 10, 16 << 10, 64 << 10, 1 << 30} {
			prm := netmodel.Thor()
			prm.StripeThreshold = thr
			row = append(row, PtPtLatency(topo, prm, m).Micros())
		}
		t.Add(row...)
	}
	return t.Fprint(w)
}

func runExtFabric(w io.Writer, sc Scale) error {
	topo := sc.Cluster(16, 32, 2)
	nodesPerLeaf := topo.Nodes / 4
	if nodesPerLeaf < 1 {
		nodesPerLeaf = 1
	}
	t := NewTable(fmt.Sprintf("Extension: fat-tree oversubscription, %v, %d nodes/leaf, 64KB/rank",
		topo, nodesPerLeaf),
		"taper", "HPC-X (us)", "MHA-Ring (us)", "MHA-RD (us)", "RD penalty")
	t.Notes = "ring schedules are leaf-local (only boundary hops cross), so taper barely " +
		"touches them; recursive doubling crosses leaves at every distance and pays the taper"
	m := 64 << 10
	prm := netmodel.Thor()
	for _, taper := range []float64{1, 2, 4} {
		tree := fabric.TwoLevel(nodesPerLeaf, taper)
		// HPC-X runs the flat ring at 64 KiB (collectives.HPCX).
		hpcx := FabricAllgatherLatency(topo, prm, m, &tree, "ring")
		ring := FabricAllgatherLatency(topo, prm, m, &tree, "mha-ring")
		rd := FabricAllgatherLatency(topo, prm, m, &tree, "mha-rd")
		t.Add(fmt.Sprintf("%.0f:1", taper),
			hpcx.Micros(), ring.Micros(), rd.Micros(),
			fmt.Sprintf("%.2fx", float64(rd)/float64(ring)))
	}
	return t.Fprint(w)
}

func runExtOverhead(w io.Writer, sc Scale) error {
	topo := sc.Cluster(16, 32, 2)
	t := NewTable(fmt.Sprintf("Extension: per-message software overhead (LogGP o), %v, 4KB/rank", topo),
		"o per msg", "HPC-X (us)", "MVAPICH2-X (us)", "MHA (us)", "MHA vs HPC-X")
	t.Notes = "medium-message margins compress toward the paper's as library overhead grows"
	m := 4 << 10
	for _, o := range []float64{0, 0.5, 1, 2} {
		prm := netmodel.ThorWithOverhead(sim.FromMicros(o))
		var vals []float64
		row := []interface{}{fmt.Sprintf("%.1fus", o)}
		for _, prof := range Profiles() {
			d := AllgatherLatency(topo, prm, m, prof)
			vals = append(vals, d.Micros())
			row = append(row, d.Micros())
		}
		row = append(row, fmt.Sprintf("%.0f%%", (1-vals[2]/vals[0])*100))
		t.Add(row...)
	}
	return t.Fprint(w)
}

func runExtApps(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := sc.Cluster(16, 32, 2)
	t := NewTable(fmt.Sprintf("Extension: application kernels across libraries, %v", topo),
		"kernel", "metric", "HPC-X", "MVAPICH2-X", "MHA")
	t.Notes = "matvec/BPMF are allgather-bound, DL is allreduce-bound, the stencil's halo exchange is library-independent"

	mv := make([]float64, 3)
	bp := make([]float64, 3)
	dl := make([]float64, 3)
	for i, prof := range Profiles() {
		res, err := matvec.Run(matvec.Config{
			Rows: 1024, Cols: 128 * topo.Size(),
			Topo: topo, Params: prm, Profile: prof, Phantom: true,
		})
		if err != nil {
			return err
		}
		mv[i] = res.GFLOPS
		b, err := bpmf.Run(bpmf.Config{
			Users: 64 * topo.Size(), Items: 64 * topo.Size(), Latent: 32,
			RatingsPerEntity: 5, Sweeps: 2,
			Topo: topo, Params: prm, Profile: prof, Phantom: true,
		})
		if err != nil {
			return err
		}
		bp[i] = b.SweepsPerSec
		d, err := dltrain.Run(dltrain.Config{
			Net: dltrain.ResNet50(), Topo: topo, Params: prm, Profile: prof, Steps: 1,
		})
		if err != nil {
			return err
		}
		dl[i] = d.ImagesPerSec
	}
	t.Add("matvec 1024x128P", "GFLOP/s", mv[0], mv[1], mv[2])
	t.Add("BPMF K=32", "sweeps/s", bp[0], bp[1], bp[2])
	t.Add("ResNet-50 batch16", "img/s", dl[0], dl[1], dl[2])

	st, err := stencil.Run(stencil.Config{
		Points: 4096 * topo.Size(), Iterations: 20, Alpha: 0.25,
		Topo: topo, Params: prm, Phantom: true,
	})
	if err != nil {
		return err
	}
	t.Add("Jacobi stencil", "Mpoints/s", st.PointsPerSec/1e6, "(same)", "(same)")
	return t.Fprint(w)
}

func runAblLeaders(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := sc.Cluster(8, 32, 2)
	t := NewTable(fmt.Sprintf("Ablation: leader count in the multi-leader design, %v", topo),
		"size/rank", "1 leader (us)", "2 leaders (us)", "4 leaders (us)", "MHA (us)")
	t.Notes = "the Section 1.1 critique: the multi-leader blend ring bottlenecks on intra-node hops"
	measure := func(m, groups int) sim.Duration {
		wl := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
		return makespan(wl, func(p *mpi.Proc) {
			collectives.MultiLeaderAllgather(p, wl, mpi.Phantom(m), mpi.Phantom(m*p.Size()), groups)
		})
	}
	for _, m := range sc.Sizes(geometric(16<<10, 256<<10)) {
		mha := core.MeasureInter(topo, prm, m, core.InterConfig{})
		t.Add(SizeLabel(m),
			measure(m, 1).Micros(), measure(m, 2).Micros(), measure(m, 4).Micros(),
			mha.Micros())
	}
	return t.Fprint(w)
}

func runExtNuma(w io.Writer, sc Scale) error {
	prm := netmodel.NumaThor()
	nodes := 8
	if sc == Quick {
		nodes = 4
	}
	topo := topology.Cluster{Nodes: nodes, PPN: 16, HCAs: 2, Sockets: 2}
	if err := topo.Validate(); err != nil {
		return err
	}
	t := NewTable(fmt.Sprintf("Extension: 3-level NUMA design, %v, 2 sockets, 1.5x cross-socket penalty", topo),
		"size/rank", "2-level MHA (us)", "3-level MHA (us)", "gain")
	t.Notes = "the paper's Section 7 future work: overlap intra-socket, inter-socket and inter-node"
	measure := func(m int, alg func(p *mpi.Proc, wl *mpi.World, send, recv mpi.Buf)) sim.Duration {
		wl := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
		return makespan(wl, func(p *mpi.Proc) {
			alg(p, wl, mpi.Phantom(m), mpi.Phantom(m*p.Size()))
		})
	}
	for _, m := range sc.Sizes(geometric(16<<10, 1<<20)) {
		two := measure(m, core.MHAInterAllgather)
		three := measure(m, core.MHA3LevelAllgather)
		t.Add(SizeLabel(m), two.Micros(), three.Micros(), Improvement(two, three))
	}
	return t.Fprint(w)
}

func runExtColl(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	topo := sc.Cluster(16, 32, 2)
	t := NewTable(fmt.Sprintf("Extension: other collectives, %v", topo),
		"collective", "size", "flat (us)", "MHA (us)", "gain")
	t.Notes = "the hierarchical multi-rail template applied beyond allgather"
	measure := func(body func(p *mpi.Proc, wl *mpi.World)) sim.Duration {
		wl := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
		return makespan(wl, func(p *mpi.Proc) {
			body(p, wl)
		})
	}
	for _, m := range sc.Sizes([]int{64 << 10, 1 << 20, 4 << 20}) {
		m := m
		flat := measure(func(p *mpi.Proc, wl *mpi.World) {
			collectives.BinomialBcast(p, wl.CommWorld(), 0, mpi.Phantom(m))
		})
		ours := measure(func(p *mpi.Proc, wl *mpi.World) {
			core.MHABcast(p, wl, 0, mpi.Phantom(m))
		})
		t.Add("bcast", SizeLabel(m), flat.Micros(), ours.Micros(), Improvement(flat, ours))
	}
	for _, m := range sc.Sizes([]int{1 << 10, 8 << 10, 32 << 10}) {
		m := m
		total := m * topo.Size()
		flat := measure(func(p *mpi.Proc, wl *mpi.World) {
			collectives.PairwiseAlltoall(p, wl.CommWorld(), mpi.Phantom(total), mpi.Phantom(total))
		})
		ours := measure(func(p *mpi.Proc, wl *mpi.World) {
			core.MHAAlltoall(p, wl, mpi.Phantom(total), mpi.Phantom(total))
		})
		t.Add("alltoall", SizeLabel(m), flat.Micros(), ours.Micros(), Improvement(flat, ours))
	}
	for _, m := range sc.Sizes([]int{256 << 10, 1 << 20, 4 << 20}) {
		m := m
		flat := measure(func(p *mpi.Proc, wl *mpi.World) {
			buf := mpi.Phantom(m)
			collectives.BinomialReduce(p, wl.CommWorld(), 0, buf, collectives.SumF64())
		})
		ours := measure(func(p *mpi.Proc, wl *mpi.World) {
			buf := mpi.Phantom(m)
			core.MHAReduce(p, wl, 0, buf, collectives.SumF64())
		})
		t.Add("reduce", SizeLabel(m), flat.Micros(), ours.Micros(), Improvement(flat, ours))
	}
	return t.Fprint(w)
}

func runExtNoise(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	prm.Jitter = 0.08 // ±8% uniform noise on every transfer/copy
	topo := sc.Cluster(8, 32, 2)
	seeds := 10
	t := NewTable(fmt.Sprintf("Extension: jitter robustness, %v, ±8%% noise, %d seeds (us, mean±std)", topo, seeds),
		"size/rank", "HPC-X", "MVAPICH2-X", "MHA", "MHA wins")
	t.Notes = "the deterministic results hold as distributions: the MHA ordering survives noise"
	for _, m := range sc.Sizes([]int{16 << 10, 64 << 10, 256 << 10}) {
		profs := Profiles()
		hp := NoisyAllgather(topo, prm, m, profs[0], seeds)
		mv := NoisyAllgather(topo, prm, m, profs[1], seeds)
		mh := NoisyAllgather(topo, prm, m, profs[2], seeds)
		wins := 0
		for s := 0; s < seeds; s++ {
			a := AllgatherLatencySeeded(topo, prm, m, profs[2], int64(s))
			b := AllgatherLatencySeeded(topo, prm, m, profs[0], int64(s))
			c := AllgatherLatencySeeded(topo, prm, m, profs[1], int64(s))
			if a < b && a < c {
				wins++
			}
		}
		t.Add(SizeLabel(m), hp.String(), mv.String(), mh.String(),
			fmt.Sprintf("%d/%d", wins, seeds))
	}
	return t.Fprint(w)
}

func runAblRails(w io.Writer, sc Scale) error {
	prm := netmodel.Thor()
	t := NewTable("Ablation: rail count scaling (MHA allgather, 8 nodes 8 PPN, us)",
		"size/rank", "H=1", "H=2", "H=4", "H=8")
	nodes, ppn := 8, 8
	if sc == Quick {
		nodes = 4
	}
	for _, m := range sc.Sizes(geometric(16<<10, 1<<20)) {
		row := []interface{}{SizeLabel(m)}
		for _, h := range []int{1, 2, 4, 8} {
			topo := topology.New(nodes, ppn, h)
			row = append(row, core.MeasureInter(topo, prm, m, core.InterConfig{}).Micros())
		}
		t.Add(row...)
	}
	return t.Fprint(w)
}
