package bench

import (
	"bytes"
	"strings"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

func TestRegistryCoversEveryFigure(t *testing.T) {
	want := []string{
		"1", "2", "3", "5", "8a", "8b", "9", "10",
		"11a", "11b", "11c", "11d",
		"12a", "12b", "13a", "13b", "14a", "14b",
		"15a", "15b", "15c", "16a", "16b", "17a", "17b", "17c",
		"abl-phase2", "abl-overlap", "abl-offload", "abl-phase1", "abl-stripe", "abl-rails",
		"abl-leaders", "ext-numa", "ext-coll", "ext-noise", "ext-fabric", "ext-overhead", "ext-apps",
		"ext-validate", "ext-faults", "sched", "cluster", "compose", "fabric",
	}
	have := map[string]bool{}
	for _, e := range registry {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(registry) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(registry), len(want))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("14b"); !ok {
		t.Fatal("14b not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, Quick); err != nil {
				t.Fatalf("experiment %s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("experiment %s produced no output", e.ID)
			}
		})
	}
}

func TestFig1ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	if err := mustByID(t, "1").Run(&buf, Quick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "intra-node CMA") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func mustByID(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	return e
}

func TestPtPtBandwidthDoublesWithStriping(t *testing.T) {
	prm := netmodel.Thor()
	m := 4 << 20
	one := PtPtBandwidth(topology.New(2, 1, 1), prm, m)
	two := PtPtBandwidth(topology.New(2, 1, 2), prm, m)
	if r := two / one; r < 1.8 || r > 2.1 {
		t.Fatalf("2-rail bandwidth ratio = %.2f, want ~2", r)
	}
	// And the single-rail bandwidth approaches the configured line rate.
	if one < prm.BWHCA/1e6*0.9 {
		t.Fatalf("1-rail bandwidth %.0f MB/s too far below line rate", one)
	}
}

func TestPtPtLatencyStripingReduction(t *testing.T) {
	prm := netmodel.Thor()
	m := 4 << 20
	one := PtPtLatency(topology.New(2, 1, 1), prm, m)
	two := PtPtLatency(topology.New(2, 1, 2), prm, m)
	if float64(two) > 0.6*float64(one) {
		t.Fatalf("striping reduction too small: %v -> %v", one, two)
	}
	small := 1 << 10
	oneS := PtPtLatency(topology.New(2, 1, 1), prm, small)
	twoS := PtPtLatency(topology.New(2, 1, 2), prm, small)
	if oneS != twoS {
		t.Fatalf("small messages should not stripe: %v vs %v", oneS, twoS)
	}
}

func TestAllgatherHeadlineShape(t *testing.T) {
	// The paper's headline: MHA wins the inter-node allgather and the
	// margin grows with scale.
	prm := netmodel.Thor()
	m := 64 << 10
	gap := func(nodes int) float64 {
		topo := topology.New(nodes, 8, 2)
		profs := Profiles()
		hpcx := AllgatherLatency(topo, prm, m, profs[0])
		mha := AllgatherLatency(topo, prm, m, profs[2])
		return float64(hpcx) / float64(mha)
	}
	g4, g8 := gap(4), gap(8)
	if g4 < 1.2 {
		t.Fatalf("4-node speedup %.2f too small", g4)
	}
	if g8 < g4*0.95 {
		t.Fatalf("speedup shrank with scale: %.2f -> %.2f", g4, g8)
	}
}

func TestAllreducePadsOddSizes(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(2, 2, 2)
	// 1000 bytes is not a multiple of 8*4; must not panic.
	for _, prof := range Profiles() {
		if d := AllreduceLatency(topo, prm, 1000, prof); d <= 0 {
			t.Fatalf("%s: non-positive latency", prof.Name)
		}
	}
}

func TestImprovementFormatting(t *testing.T) {
	if got := Improvement(100, 50); got != "50%" {
		t.Fatalf("Improvement = %q", got)
	}
	if got := Improvement(0, 50); got != "-" {
		t.Fatalf("Improvement(0, x) = %q", got)
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{
		512:     "512B",
		1 << 10: "1KB",
		16384:   "16KB",
		1 << 20: "1MB",
		4 << 20: "4MB",
		1500:    "1500B",
	}
	for n, want := range cases {
		if got := SizeLabel(n); got != want {
			t.Fatalf("SizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "a", "bb")
	tab.Notes = "a note"
	tab.Add("x", 1.5)
	tab.Add("y", "z")
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "a note", "1.50", "bb", "--"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale strings")
	}
	c := Quick.Cluster(32, 32, 2)
	if c.Nodes != 8 || c.PPN != 8 {
		t.Fatalf("quick cluster = %v", c)
	}
	f := Full.Cluster(32, 32, 2)
	if f.Nodes != 32 || f.PPN != 32 {
		t.Fatalf("full cluster = %v", f)
	}
	sizes := geometric(1, 16) // 1,2,4,8,16
	if len(sizes) != 5 {
		t.Fatalf("geometric = %v", sizes)
	}
	q := Quick.Sizes(sizes)
	if len(q) != 3 || q[0] != 1 || q[2] != 16 {
		t.Fatalf("quick sizes = %v", q)
	}
	if len(Full.Sizes(sizes)) != 5 {
		t.Fatal("full sizes should be unmodified")
	}
}

func TestValidationGridFidelity(t *testing.T) {
	prm := netmodel.Thor()
	shapes := []topology.Cluster{topology.New(1, 4, 2), topology.New(4, 8, 2)}
	pts := GridValidation(prm, shapes, []int{16 << 10, 256 << 10})
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	s := SummarizeValidation(pts)
	if s.GeoMeanRatio < 0.7 || s.GeoMeanRatio > 1.5 {
		t.Fatalf("geometric mean ratio %.2f outside plausibility band", s.GeoMeanRatio)
	}
	// Small alpha-dominated sizes can sit outside the 50% band (the same
	// visible gap as the paper's own Figure 9 at 16KB); allow one outlier.
	if s.Within50 < s.Points-1 {
		t.Fatalf("only %d/%d points within 50%% of the model", s.Within50, s.Points)
	}
	// Worst ratio must be one of the sampled ratios.
	found := false
	for _, p := range pts {
		if p.Ratio() == s.WorstRatio {
			found = true
		}
	}
	if !found {
		t.Fatal("worst ratio not among sampled points")
	}
}

func TestSummarizeValidationEmpty(t *testing.T) {
	s := SummarizeValidation(nil)
	if s.Points != 0 || s.WorstRatio != 1 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestTableCSVRendering(t *testing.T) {
	tab := NewTable("demo", "size", "latency")
	tab.Add("1KB", 3.25)
	tab.Add("has,comma", "x")
	var buf bytes.Buffer
	if err := tab.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# demo", "size,latency", "1KB,3.25", `"has,comma",x`} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
	// CSVMode routes Fprint through the CSV renderer.
	CSVMode = true
	defer func() { CSVMode = false }()
	buf.Reset()
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# demo") {
		t.Fatalf("CSVMode ignored:\n%s", buf.String())
	}
}

func TestExperimentOutputsDeterministic(t *testing.T) {
	// Whole-stack determinism: running an experiment twice must produce
	// byte-identical tables (the property EXPERIMENTS.md relies on).
	for _, id := range []string{"3", "5", "9", "abl-stripe", "ext-overhead"} {
		e := mustByID(t, id)
		var a, b bytes.Buffer
		if err := e.Run(&a, Quick); err != nil {
			t.Fatalf("%s first run: %v", id, err)
		}
		if err := e.Run(&b, Quick); err != nil {
			t.Fatalf("%s second run: %v", id, err)
		}
		if a.String() != b.String() {
			t.Fatalf("experiment %s not deterministic:\n--- first\n%s\n--- second\n%s",
				id, a.String(), b.String())
		}
	}
}
