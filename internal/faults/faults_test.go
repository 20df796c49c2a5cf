package faults

import (
	"strings"
	"testing"

	"mha/internal/sim"
)

const (
	us = sim.Time(1000)
	ms = 1000 * us
)

func TestRailStateDownWindow(t *testing.T) {
	s := MustNew(Fault{Kind: Down, Node: 0, Rail: 1, From: 10 * us, Until: 20 * us})

	if f, until := s.RailState(0, 1, 0); f != 1 || until != 10*us {
		t.Fatalf("before window: frac=%v until=%v", f, until)
	}
	if f, until := s.RailState(0, 1, 10*us); f != 0 || until != 20*us {
		t.Fatalf("inside window: frac=%v until=%v", f, until)
	}
	if f, until := s.RailState(0, 1, 20*us); f != 1 || until != Forever {
		t.Fatalf("after window: frac=%v until=%v", f, until)
	}
	// Other rails and nodes are untouched.
	if f, _ := s.RailState(0, 0, 15*us); f != 1 {
		t.Fatalf("rail 0 affected: frac=%v", f)
	}
	if f, _ := s.RailState(1, 1, 15*us); f != 1 {
		t.Fatalf("node 1 affected: frac=%v", f)
	}
}

func TestRailStateWildcardsAndOverlap(t *testing.T) {
	s := MustNew(
		Fault{Kind: Degrade, Node: AllNodes, Rail: 0, Fraction: 0.5, From: 0, Until: ms},
		Fault{Kind: Degrade, Node: 2, Rail: AllRails, Fraction: 0.5, From: 0, Until: ms},
	)
	if f, _ := s.RailState(1, 0, 0); f != 0.5 {
		t.Fatalf("node1.rail0 frac=%v, want 0.5", f)
	}
	// Overlapping degrades compound multiplicatively.
	if f, _ := s.RailState(2, 0, 0); f != 0.25 {
		t.Fatalf("node2.rail0 frac=%v, want 0.25", f)
	}
	if f, _ := s.RailState(2, 1, 0); f != 0.5 {
		t.Fatalf("node2.rail1 frac=%v, want 0.5", f)
	}
}

func TestFlapPhases(t *testing.T) {
	// down 50us at the start of each 200us period, from 100us.
	s := MustNew(Fault{Kind: Flap, Node: 0, Rail: 0,
		Period: sim.Duration(200 * us), DownFor: sim.Duration(50 * us),
		From: 100 * us, Until: Forever})

	cases := []struct {
		t     sim.Time
		frac  float64
		until sim.Time
	}{
		{0, 1, 100 * us},        // before the fault
		{100 * us, 0, 150 * us}, // first down phase
		{149 * us, 0, 150 * us},
		{150 * us, 1, 300 * us}, // first up phase
		{299 * us, 1, 300 * us},
		{300 * us, 0, 350 * us}, // second cycle
	}
	for _, c := range cases {
		if f, u := s.RailState(0, 0, c.t); f != c.frac || u != c.until {
			t.Errorf("t=%v: frac=%v until=%v, want %v, %v", c.t, f, u, c.frac, c.until)
		}
	}
}

func TestNextUp(t *testing.T) {
	s := MustNew(
		Fault{Kind: Down, Node: 0, Rail: 0, From: 0, Until: 10 * us},
		Fault{Kind: Down, Node: 0, Rail: 1, From: 0, Until: Forever},
	)
	if up := s.NextUp(0, 0, 0); up != 10*us {
		t.Fatalf("NextUp rail0 = %v, want 10us", up)
	}
	if up := s.NextUp(0, 0, 15*us); up != 15*us {
		t.Fatalf("NextUp when already up = %v, want 15us", up)
	}
	if up := s.NextUp(0, 1, 0); up != Forever {
		t.Fatalf("NextUp permanently-down rail = %v, want Forever", up)
	}
}

func TestExtraLatency(t *testing.T) {
	s := MustNew(
		Fault{Kind: Latency, Node: 0, Rail: 0, Extra: 5000, From: 0, Until: ms},
		Fault{Kind: Latency, Node: AllNodes, Rail: AllRails, Extra: 1000, From: 0, Until: ms},
	)
	if e := s.ExtraLatency(0, 0, 0); e != 6000 {
		t.Fatalf("latency = %v, want 6000 (stacked)", e)
	}
	if e := s.ExtraLatency(1, 0, 0); e != 1000 {
		t.Fatalf("latency other node = %v, want 1000", e)
	}
	if e := s.ExtraLatency(0, 0, ms); e != 0 {
		t.Fatalf("latency after window = %v, want 0", e)
	}
	// Latency faults don't touch bandwidth.
	if f, _ := s.RailState(0, 0, 0); f != 1 {
		t.Fatalf("latency fault changed fraction to %v", f)
	}
}

func TestWindows(t *testing.T) {
	s := MustNew(
		Fault{Kind: Down, Node: 0, Rail: 0, From: 10 * us, Until: 20 * us},
		Fault{Kind: Degrade, Node: 0, Rail: 0, Fraction: 0.5, From: 30 * us, Until: 40 * us},
	)
	ws := s.Windows(0, 0, 0, 100*us)
	if len(ws) != 2 {
		t.Fatalf("windows = %v, want 2", ws)
	}
	if ws[0].From != 10*us || ws[0].To != 20*us || ws[0].Fraction != 0 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1].From != 30*us || ws[1].To != 40*us || ws[1].Fraction != 0.5 {
		t.Errorf("window 1 = %+v", ws[1])
	}
	// Clamped to the query range.
	if ws := s.Windows(0, 0, 0, 15*us); len(ws) != 1 || ws[0].To != 15*us {
		t.Errorf("clamped windows = %v", ws)
	}
	if ws := s.Windows(1, 1, 0, 100*us); len(ws) != 0 {
		t.Errorf("healthy rail windows = %v", ws)
	}
}

func TestValidation(t *testing.T) {
	bad := []Fault{
		{Kind: Degrade, Fraction: 0},                // fraction out of range
		{Kind: Degrade, Fraction: 1},                // fraction out of range
		{Kind: Latency},                             // no extra
		{Kind: Flap, Period: 100, DownFor: 100},     // down == period
		{Kind: Flap, Period: 0, DownFor: 10},        // no period
		{Kind: Down, From: 20 * us, Until: 10 * us}, // empty window
		{Kind: Down, Node: -7},                      // bad node
		{Kind: Kind(42)},                            // unknown kind
	}
	for i, f := range bad {
		if _, err := New(f); err == nil {
			t.Errorf("fault %d (%+v) validated, want error", i, f)
		}
	}
	if _, err := New(Fault{Kind: Down, Node: 0, Rail: 0}); err != nil {
		t.Errorf("open-ended down fault rejected: %v", err)
	}
}

func TestCheckAgainstCluster(t *testing.T) {
	s := MustNew(Fault{Kind: Down, Node: 3, Rail: 1})
	if err := s.Check(4, 2); err != nil {
		t.Fatalf("in-range fault rejected: %v", err)
	}
	if err := s.Check(3, 2); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := s.Check(4, 1); err == nil {
		t.Fatal("out-of-range rail accepted")
	}
	var nilSched *Schedule
	if err := nilSched.Check(1, 1); err != nil {
		t.Fatalf("nil schedule Check: %v", err)
	}
}

func TestNilScheduleIsHealthy(t *testing.T) {
	var s *Schedule
	if s.Len() != 0 {
		t.Fatal("nil schedule has faults")
	}
	if f, until := s.RailState(0, 0, 0); f != 1 || until != Forever {
		t.Fatalf("nil schedule state = %v, %v", f, until)
	}
	if !s.Up(0, 0, 0) {
		t.Fatal("nil schedule rail down")
	}
	if s.String() != "(healthy)" {
		t.Fatalf("nil schedule String = %q", s.String())
	}
}

func TestParseRoundTrip(t *testing.T) {
	spec := `
# a comment
down    node=0 rail=1 from=10us until=2ms
degrade node=* rail=1 frac=0.5
latency node=2 rail=* extra=5us from=1ms until=forever
flap    node=1 rail=0 period=200us down=50us
`
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("parsed %d faults, want 4", s.Len())
	}
	fs := s.Faults()
	if fs[0].Kind != Down || fs[0].Node != 0 || fs[0].Rail != 1 ||
		fs[0].From != 10*us || fs[0].Until != 2*ms {
		t.Errorf("fault 0 = %+v", fs[0])
	}
	if fs[1].Kind != Degrade || fs[1].Node != AllNodes || fs[1].Fraction != 0.5 ||
		fs[1].Until != Forever {
		t.Errorf("fault 1 = %+v", fs[1])
	}
	// String() renders in the format Parse accepts.
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parsing String(): %v\n%s", err, s.String())
	}
	if s2.String() != s.String() {
		t.Fatalf("round trip changed:\n%s\nvs\n%s", s.String(), s2.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"explode node=0",        // unknown kind
		"down node=x",           // bad index
		"down from=banana",      // bad duration
		"down node=0 rail",      // malformed field
		"down wat=1",            // unknown key
		"degrade node=0 rail=0", // missing frac fails validation
		"down from=-5us",        // negative duration
		"down node=0 frac=0.5",  // a key down does not take
		"latency node=0 rail=0 extra=5us period=1ms", // a key latency does not take
		"down node=0 node=1 rail=0",                  // repeated key
		"degrade node=0 rail=0 frac=NaN",             // NaN fraction
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(42, 4, 2, ms)
	b := Random(42, 4, 2, ms)
	if a.String() != b.String() {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a, b)
	}
	c := Random(43, 4, 2, ms)
	if a.String() == c.String() && a.Len() > 0 {
		t.Fatal("different seeds produced identical non-empty schedules")
	}
	if err := a.Check(4, 2); err != nil {
		t.Fatalf("random schedule out of range: %v", err)
	}
}

func TestScheduleStringMentionsEveryFault(t *testing.T) {
	s := MustNew(
		Fault{Kind: Down, Node: 0, Rail: 0, From: us},
		Fault{Kind: Flap, Node: 1, Rail: 1, Period: 1000, DownFor: 100},
	)
	str := s.String()
	for _, want := range []string{"down", "flap", "period=1us", "until=forever"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}
