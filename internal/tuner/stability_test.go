package tuner

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
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
// winner's name, analyzer cost, simulated makespan, pruning verdict and
// the schedule's text form. A search
// that prices, orders or measures any candidate differently moves it; a
// change of wire format does not. -short keeps the shapes of at most 16
// ranks.
func TestDecisionsPinned(t *testing.T) {
	qs := append(benchmarkQueries(),
		Query{Nodes: 4, PPN: 4, HCAs: 2, Msg: 64 << 10, Health: []float64{0, 1}},
		Query{Nodes: 2, PPN: 4, HCAs: 3, Msg: 256 << 10, Health: []float64{1, 0.5, 0.25}})
	want := "abe1c2838e10efd8eb75a3d6a185bc7687faa92221b40a8847a11fe9a02e3ac7"
	if testing.Short() {
		want = "c81585b0e8b2a31c18ae37e9c150b4e1cbf0b07aaebf6e230ee08a24079a5268"
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
		fmt.Fprintf(h, "%s|%v|%v|%v\n%s", d.Name, d.CostUS, d.MakespanUS, d.Pruned, s)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("decisions moved: digest %s, recorded %s", got, want)
	}
}

// TestWireBytesFence holds the served form to its size: the benchmark's
// 55 keys' wire bytes (what every warm request writes) total at most the
// measured figure plus 5 %. Schedules as integer tuples measured 373 026
// bytes (375 267 while each decision also carried the closed-form
// estimate, predicted_us); with each transfer an object of named fields
// they were 1 086 281.
func TestWireBytesFence(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the 128-rank key; skipped in -short")
	}
	const measured = 373026
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

// TestEncodeIsMarshal: Encode marshals only the fields before the
// schedule and appends the schedule as it is, and must still give
// exactly json.Marshal's bytes. On the benchmark's 55 keys — the pruned
// one, 2x8x2 / 1 MiB / [1 0.5] with makespan 0, among them — it checks
// the decision the service synthesized and served, that decision decoded
// back from its bytes, and the decoded one with its schedule one step a
// line, as a hand-written cache file may hold it. -short keeps the shapes
// of at most 16 ranks.
func TestEncodeIsMarshal(t *testing.T) {
	svc := New(Config{Capacity: 512})
	pruned := 0
	for _, q := range benchmarkQueries() {
		if testing.Short() && q.Nodes*q.PPN > 16 {
			continue
		}
		res, err := svc.Decide(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		dec, err := DecodeDecision(res.Raw, svc.Params())
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		s, err := sched.Parse(string(dec.Schedule))
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		spaced := *dec
		if spaced.Schedule, err = s.JSON(); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			d    *Decision
		}{{"served", res.Decision}, {"decoded", dec}, {"one step a line", &spaced}} {
			want, err := json.Marshal(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.d.Encode()
			if err != nil {
				t.Fatalf("%+v %s: %v", q, tc.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%+v %s: Encode gives\n%.300s\njson.Marshal\n%.300s", q, tc.name, got, want)
			}
			if !bytes.Equal(want, res.Raw) {
				t.Errorf("%+v %s: json.Marshal differs from the served bytes", q, tc.name)
			}
		}
		if dec.Pruned && dec.MakespanUS == 0 {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("no key served a pruned decision with makespan 0")
	}
}

// BenchmarkColdMiss is tuner-serve's cold set-up without the HTTP
// harness: one op answers the benchmark's 55 keys on a fresh Service, so
// every answer is a synthesis.
func BenchmarkColdMiss(b *testing.B) {
	qs := benchmarkQueries()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := New(Config{Capacity: 512})
		for _, q := range qs {
			if _, err := svc.Decide(q); err != nil {
				b.Fatalf("%+v: %v", q, err)
			}
		}
	}
}
