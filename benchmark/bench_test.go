package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 99, 0},
		{hundred, 99, 99},
		{hundred, 50, 50},
		{hundred, 100, 100},
		{[]float64{5, 9, 1}, 99, 9}, // fewer than 100 samples: the maximum
		{[]float64{5, 9, 1}, 1, 1},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(tc.xs), tc.p, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100] has children a [10,40] and b [50,90]; b has child c [60,70].
	spans := []span{
		{ID: 1, Layer: "bench", Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "x", Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "y", Name: "b", Start: 50, End: 90},
		{ID: 4, Parent: 3, Layer: "x", Name: "c", Start: 60, End: 70},
	}
	byName := selfTimes(spans, func(s span) string { return s.Name })
	for name, want := range map[string]int64{"op": 30, "a": 30, "b": 30, "c": 10} {
		if byName[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, byName[name], want)
		}
	}
	byLayer := selfTimes(spans, func(s span) string { return s.Layer })
	if byLayer["x"] != 40 || byLayer["y"] != 30 || byLayer["bench"] != 30 {
		t.Errorf("layer self times = %v", byLayer)
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	var none *tracer
	none.call(0, 0, "l", "n", func() {})
	off := &tracer{off: true}
	off.call(0, 0, "l", "n", func() {})
	if len(off.spans) != 0 {
		t.Errorf("a tracer that is off recorded %d spans", len(off.spans))
	}
	on := newTracer()
	op := on.begin(0, 0, "bench", harnessSpan)
	on.call(op, op, "l", "n", func() {})
	on.end(op, map[string]int64{"k": 1})
	if len(on.spans) != 2 || on.spans[0].Op != op || on.spans[1].Parent != op || on.spans[0].Counts["k"] != 1 {
		t.Errorf("spans = %+v", on.spans)
	}
}

// TestSmoke runs every workload at about 1/20 scale, one pass, untraced
// and traced, and wants no failed operation.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 1, smoke: true}
	for _, w := range workloads() {
		rep, err := runWorkload(w, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.name(), rep.correct, rep.attempted, rep.failed, rep.failures)
		}
		for _, d := range endToEnd {
			if v := rep.metrics[d.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name(), d.Name, v)
			}
		}
		tr := newTracer()
		if _, _, res, err := timedPass(w, cfg, tr); err != nil || len(res.failures) != 0 || len(tr.spans) == 0 {
			t.Errorf("%s traced: err=%v failures=%v spans=%d", w.name(), err, res.failures, len(tr.spans))
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, doc.Workloads[i].Name, w.name())
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in metrics.go", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s: bound of %s differs from metrics.go (%v)", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
