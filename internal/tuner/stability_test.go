package tuner

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mha/internal/sched"
)

// benchmarkQueries is the repository benchmark's tuner-serve key set:
// every small shape at three sizes, healthy and with rail 1 at half
// rate, plus one 128-rank shape.
func benchmarkQueries() []Query {
	var qs []Query
	for _, nodes := range []int{2, 4, 8} {
		for _, ppn := range []int{2, 4, 8} {
			for _, msg := range []int{4 << 10, 64 << 10, 1 << 20} {
				for _, health := range [][]float64{nil, {1, 0.5}} {
					qs = append(qs, Query{Nodes: nodes, PPN: ppn, HCAs: 2, Msg: msg, Health: health})
				}
			}
		}
	}
	return append(qs, Query{Nodes: 8, PPN: 16, HCAs: 2, Msg: 64 << 10})
}

// TestDecisionsPinned is the cold path's answer sheet: the daemon's
// default service synthesizes the benchmark's 55 keys, a dead-rail
// machine and a three-rail degraded one, and the SHA-256 over what each
// served decision says must equal the recorded digest. What a decision
// says is read back through DecodeDecision, not from its bytes: the
// winner's name, analyzer cost, simulated makespan, closed-form
// prediction, pruning verdict and the schedule's text form. A search
// that prices, orders or measures any candidate differently moves it; a
// change of wire format does not. -short keeps the shapes of at most 16
// ranks.
func TestDecisionsPinned(t *testing.T) {
	qs := append(benchmarkQueries(),
		Query{Nodes: 4, PPN: 4, HCAs: 2, Msg: 64 << 10, Health: []float64{0, 1}},
		Query{Nodes: 2, PPN: 4, HCAs: 3, Msg: 256 << 10, Health: []float64{1, 0.5, 0.25}})
	want := "6759814d9ca2231ce73e3b3cbb5282a6792f955dfab14e087183d69d0f4d4022"
	if testing.Short() {
		want = "1a37f1fc1b2964014b52ebb6f8b8a78e18039aea8eecc6ec365e0ecf4a614f20"
	}
	svc := New(Config{Capacity: 512})
	h := sha256.New()
	for _, q := range qs {
		if testing.Short() && q.Nodes*q.PPN > 16 {
			continue
		}
		res, err := svc.Decide(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		d, err := DecodeDecision(res.Raw, svc.Params())
		if err != nil {
			t.Fatalf("%+v: served decision does not decode: %v", q, err)
		}
		s, err := sched.Parse(string(d.Schedule))
		if err != nil {
			t.Fatalf("%+v: served schedule does not parse: %v", q, err)
		}
		fmt.Fprintf(h, "%s|%v|%v|%v|%v\n%s", d.Name, d.CostUS, d.MakespanUS, d.PredictedUS, d.Pruned, s)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("decisions moved: digest %s, recorded %s", got, want)
	}
}

// TestWireBytesFence holds the served form to its size: the benchmark's
// 55 keys' wire bytes (what every warm request writes) total at most the
// measured figure plus 5 %. Schedules as integer tuples measured 375 267
// bytes; with each transfer an object of named fields they were
// 1 086 281.
func TestWireBytesFence(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the 128-rank key; skipped in -short")
	}
	const measured = 375267
	svc := New(Config{Capacity: 512})
	total := 0
	for _, q := range benchmarkQueries() {
		res, err := svc.Decide(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		total += len(res.Raw)
	}
	t.Logf("55 keys: %d wire bytes", total)
	if limit := measured + measured/20; total > limit {
		t.Errorf("55 keys serve %d bytes, over the fence of %d (measured %d + 5 %%)", total, limit, measured)
	}
}
