package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mha/internal/sim"
)

func ev(rank int, cat Category, start, end int64) Event {
	return Event{Rank: rank, Cat: cat, Name: string(cat), Start: sim.Time(start), End: sim.Time(end), Peer: -1}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Add(ev(0, CatSend, 0, 1)) // must not panic
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder should be empty")
	}
	r.Reset()
	if !strings.Contains(r.Timeline(40), "no events") {
		t.Fatal("nil recorder timeline should say no events")
	}
}

func TestEventsSortedByStart(t *testing.T) {
	r := New()
	r.Add(ev(1, CatRecv, 50, 60))
	r.Add(ev(0, CatSend, 10, 20))
	r.Add(ev(2, CatHCA, 10, 30))
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Rank != 0 || got[1].Rank != 2 || got[2].Rank != 1 {
		t.Fatalf("order wrong: %+v", got)
	}
	// Ties on (Start, Rank) keep insertion order: the trace hash and the
	// timeline goldens depend on it.
	r.Add(ev(2, CatWait, 10, 11))
	r.Add(ev(2, CatCompute, 10, 12))
	got = r.Events()
	if got[1].Cat != CatHCA || got[2].Cat != CatWait || got[3].Cat != CatCompute {
		t.Fatalf("ties reordered: %+v", got)
	}
}

func TestTimelineRendersLanes(t *testing.T) {
	r := New()
	r.Add(ev(0, CatSend, 0, 500))
	r.Add(ev(1, CatRecv, 500, 1000))
	out := r.Timeline(40)
	if !strings.Contains(out, "rank   0") || !strings.Contains(out, "rank   1") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "S") || !strings.Contains(out, "R") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "legend") {
		t.Fatal("missing legend")
	}
}

func TestTimelineWaitDoesNotOverwrite(t *testing.T) {
	r := New()
	r.Add(ev(0, CatSend, 0, 1000))
	r.Add(ev(0, CatWait, 0, 1000))
	out := r.Timeline(20)
	if strings.Contains(strings.Split(out, "\n")[1], ".") {
		t.Fatalf("wait overwrote send:\n%s", out)
	}
}

func TestTimelineUnknownCategory(t *testing.T) {
	r := New()
	r.Add(ev(0, Category("weird"), 0, 10))
	if !strings.Contains(r.Timeline(20), "?") {
		t.Fatal("unknown category should render as ?")
	}
}

func TestListingIncludesDetails(t *testing.T) {
	r := New()
	r.Add(Event{Rank: 3, Cat: CatHCA, Name: "hca(x2)", Start: 1000, End: 2000, Peer: 7, Bytes: 4096})
	out := r.Listing()
	for _, want := range []string{"rank   3", "hca(x2)", "peer=7", "4096B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestResetClears(t *testing.T) {
	r := New()
	r.Add(ev(0, CatSend, 0, 1))
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

// TestDiff: Diff names the first index where two insertion sequences part,
// and stays stricter than Hash, which sorts: the same events added in
// another order hash alike and still differ.
func TestDiff(t *testing.T) {
	rec := func(evs ...Event) *Recorder {
		r := New()
		for _, e := range evs {
			r.Add(e)
		}
		return r
	}
	a, b, c := ev(0, CatSend, 0, 10), ev(1, CatRecv, 0, 10), ev(1, CatWait, 10, 20)
	cases := []struct {
		name     string
		r, o     *Recorder
		at       int
		wantA    *Event
		wantB    *Event
		sameHash bool
	}{
		{"equal", rec(a, b, c), rec(a, b, c), -1, nil, nil, true},
		{"both nil", nil, nil, -1, nil, nil, true},
		{"nil and empty", nil, New(), -1, nil, nil, true},
		{"swapped", rec(a, b, c), rec(b, a, c), 0, &a, &b, true},
		{"second longer", rec(a, b), rec(a, b, c), 2, nil, &c, false},
		{"first longer", rec(a, b, c), rec(a), 1, &b, nil, false},
		{"nil and one event", nil, rec(a), 0, nil, &a, false},
	}
	for _, tc := range cases {
		at, ea, eb := tc.r.Diff(tc.o)
		if at != tc.at || !sameEvent(ea, tc.wantA) || !sameEvent(eb, tc.wantB) {
			t.Errorf("%s: Diff = %d, %v, %v; want %d, %v, %v", tc.name, at, ea, eb, tc.at, tc.wantA, tc.wantB)
		}
		if got := tc.r.Hash() == tc.o.Hash(); got != tc.sameHash {
			t.Errorf("%s: equal hashes %v, want %v", tc.name, got, tc.sameHash)
		}
	}
}

func sameEvent(a, b *Event) bool { return a == b || a != nil && b != nil && *a == *b }

// TestAddReservesForASmallRun: a recorder that lives for one 4-rank
// collective (verify.RunOnce builds one per run, the explorer 40 000 a
// pass) takes its 40 events in one allocation besides itself.
func TestAddReservesForASmallRun(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		r := New()
		for i := 0; i < 40; i++ {
			r.Add(ev(i%4, CatSend, int64(i), int64(i)+1))
		}
	})
	if allocs > 2 {
		t.Fatalf("%.0f allocations for a 40-event trace, want the recorder and one slice", allocs)
	}
}

func TestTimelineMinWidth(t *testing.T) {
	r := New()
	r.Add(ev(0, CatSend, 0, 100))
	out := r.Timeline(1) // clamped up to 10
	if len(strings.Split(out, "\n")[1]) < 10 {
		t.Fatalf("width not clamped:\n%s", out)
	}
}

// TestTimelineEndLabelWiderThanChart: an end time whose label is wider
// than the chart is printed past its right edge, not padded by a
// negative count.
func TestTimelineEndLabelWiderThanChart(t *testing.T) {
	r := New()
	r.Add(ev(0, CatSend, 0, 123456789012345))
	end := fmt.Sprint(sim.Time(123456789012345))
	if len(end) <= 10 {
		t.Fatalf("label %q fits the chart, so the case shows nothing", end)
	}
	out := r.Timeline(10)
	if head := strings.Split(out, "\n")[0]; head != "t=0"+end {
		t.Fatalf("header %q, want %q", head, "t=0"+end)
	}
}

// Property: the timeline always has one lane per rank up to the max rank,
// and rendering never panics for arbitrary event sets.
func TestQuickTimelineLaneCount(t *testing.T) {
	cats := []Category{CatSend, CatRecv, CatHCA, CatCopyIn, CatCopyOut, CatCompute, CatWait}
	f := func(raw []struct {
		Rank  uint8
		Cat   uint8
		Start uint16
		Dur   uint16
	}) bool {
		if len(raw) == 0 {
			return true
		}
		r := New()
		maxRank := 0
		for _, e := range raw {
			rank := int(e.Rank) % 16
			if rank > maxRank {
				maxRank = rank
			}
			start := int64(e.Start)
			r.Add(Event{
				Rank:  rank,
				Cat:   cats[int(e.Cat)%len(cats)],
				Start: sim.Time(start),
				End:   sim.Time(start + int64(e.Dur)),
				Peer:  -1,
			})
		}
		out := r.Timeline(60)
		lanes := 0
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "rank ") {
				lanes++
			}
		}
		return lanes == maxRank+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := New()
	r.Add(Event{Rank: 1, Cat: CatHCA, Name: "hca(x2)", Start: 1000, End: 3000, Peer: 4, Bytes: 512})
	r.Add(Event{Rank: 0, Cat: CatCompute, Name: "compute", Start: 0, End: 500, Peer: -1})
	var buf strings.Builder
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(buf.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	// Sorted by start: compute first.
	if events[0]["name"] != "compute" || events[0]["ph"] != "X" {
		t.Fatalf("first event wrong: %v", events[0])
	}
	second := events[1]
	if second["tid"].(float64) != 1 || second["dur"].(float64) != 2 {
		t.Fatalf("hca event wrong: %v", second)
	}
	args := second["args"].(map[string]interface{})
	if args["peer"].(float64) != 4 || args["bytes"].(float64) != 512 {
		t.Fatalf("args wrong: %v", args)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf strings.Builder
	if err := New().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("empty trace = %q", buf.String())
	}
}
