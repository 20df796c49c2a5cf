// Package faults is a deterministic fault-injection subsystem for the
// simulated cluster: scripted schedules of rail failures (a rail down for
// a window, degraded to a fraction of its bandwidth, serving with elevated
// per-message latency, or flapping periodically) that the MPI runtime
// applies to its HCA resources and consults for transport selection.
//
// A Schedule is a pure function of virtual time: the same schedule on the
// same workload always yields bit-identical results, and the Random
// generator derives a schedule deterministically from a seed, so fault
// campaigns are as reproducible as the healthy simulations.
package faults

import (
	"fmt"
	"math/rand"
	"strings"

	"mha/internal/sim"
)

// Kind classifies a fault.
type Kind int

const (
	// Down makes the rail completely unavailable during [From, Until).
	Down Kind = iota
	// Degrade scales the rail's bandwidth by Fraction during [From, Until).
	Degrade
	// Latency adds Extra startup time to every message on the rail during
	// [From, Until) without touching its bandwidth.
	Latency
	// Flap repeats [down for DownFor, up for Period-DownFor] cycles,
	// starting at From, until Until.
	Flap
)

func (k Kind) String() string {
	switch k {
	case Down:
		return "down"
	case Degrade:
		return "degrade"
	case Latency:
		return "latency"
	case Flap:
		return "flap"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Forever marks an open-ended fault window (and is what state queries
// return as the horizon when no further transition is scheduled).
const Forever = sim.TimeMax

// AllNodes and AllRails select every node / every rail of a Fault.
const (
	AllNodes = -1
	AllRails = -1
)

// Fault is one scripted fault on one rail (or on every rail of a node, or
// on one rail index of every node).
type Fault struct {
	// Kind selects the failure mode.
	Kind Kind
	// Node is the afflicted node, or AllNodes.
	Node int
	// Rail is the afflicted rail index, or AllRails.
	Rail int
	// From and Until bound the fault window [From, Until). Until <= 0
	// normalizes to Forever.
	From, Until sim.Time
	// Fraction is the surviving bandwidth share of a Degrade fault,
	// in (0, 1).
	Fraction float64
	// Extra is the added per-message startup of a Latency fault.
	Extra sim.Duration
	// Period and DownFor shape a Flap fault: each Period starts with
	// DownFor of outage. 0 < DownFor < Period.
	Period, DownFor sim.Duration
}

// normalize applies the Until <= 0 => Forever convention.
func (f Fault) normalize() Fault {
	if f.Until <= 0 {
		f.Until = Forever
	}
	return f
}

// validate reports whether the fault is well-formed.
func (f Fault) validate() error {
	switch {
	case f.Node < AllNodes:
		return fmt.Errorf("faults: node %d invalid", f.Node)
	case f.Rail < AllRails:
		return fmt.Errorf("faults: rail %d invalid", f.Rail)
	case f.From < 0:
		return fmt.Errorf("faults: negative start %v", f.From)
	case f.Until <= f.From:
		return fmt.Errorf("faults: empty window [%v, %v)", f.From, f.Until)
	}
	switch f.Kind {
	case Down:
	case Degrade:
		if !(f.Fraction > 0 && f.Fraction < 1) { // NaN fails both
			return fmt.Errorf("faults: degrade fraction %v outside (0, 1)", f.Fraction)
		}
	case Latency:
		if f.Extra <= 0 {
			return fmt.Errorf("faults: latency fault needs a positive extra, have %v", f.Extra)
		}
	case Flap:
		if f.Period <= 0 || f.DownFor <= 0 || f.DownFor >= f.Period {
			return fmt.Errorf("faults: flap needs 0 < down (%v) < period (%v)", f.DownFor, f.Period)
		}
	default:
		return fmt.Errorf("faults: unknown kind %d", int(f.Kind))
	}
	return nil
}

// applies reports whether the fault afflicts (node, rail).
func (f Fault) applies(node, rail int) bool {
	return (f.Node == AllNodes || f.Node == node) &&
		(f.Rail == AllRails || f.Rail == rail)
}

// state returns this fault's bandwidth multiplier at time t and the
// horizon until which it is constant (> t, exclusive).
func (f Fault) state(t sim.Time) (frac float64, until sim.Time) {
	if t < f.From {
		return 1, f.From
	}
	if t >= f.Until {
		return 1, Forever
	}
	switch f.Kind {
	case Down:
		return 0, f.Until
	case Degrade:
		return f.Fraction, f.Until
	case Latency:
		return 1, f.Until
	case Flap:
		phase := sim.Duration(t-f.From) % f.Period
		cycleStart := t - sim.Time(phase)
		if phase < f.DownFor {
			return 0, minTime(f.Until, cycleStart+sim.Time(f.DownFor))
		}
		return 1, minTime(f.Until, cycleStart+sim.Time(f.Period))
	}
	return 1, f.Until
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

// fmtDuration renders a duration for String/Spec output.
func (f Fault) String() string {
	var b strings.Builder
	b.WriteString(f.Kind.String())
	if f.Node == AllNodes {
		b.WriteString(" node=*")
	} else {
		fmt.Fprintf(&b, " node=%d", f.Node)
	}
	if f.Rail == AllRails {
		b.WriteString(" rail=*")
	} else {
		fmt.Fprintf(&b, " rail=%d", f.Rail)
	}
	switch f.Kind {
	case Degrade:
		fmt.Fprintf(&b, " frac=%g", f.Fraction)
	case Latency:
		fmt.Fprintf(&b, " extra=%s", specDuration(f.Extra))
	case Flap:
		fmt.Fprintf(&b, " period=%s down=%s", specDuration(f.Period), specDuration(f.DownFor))
	}
	fmt.Fprintf(&b, " from=%s", specTime(f.From))
	if f.Until >= Forever {
		b.WriteString(" until=forever")
	} else {
		fmt.Fprintf(&b, " until=%s", specTime(f.Until))
	}
	return b.String()
}

// Schedule is an immutable, validated set of faults. A nil *Schedule is a
// valid always-healthy schedule, so callers can thread one through
// unconditionally.
type Schedule struct {
	faults []Fault
}

// New validates the faults and builds a schedule.
func New(fs ...Fault) (*Schedule, error) {
	s := &Schedule{faults: make([]Fault, 0, len(fs))}
	for i, f := range fs {
		f = f.normalize()
		if err := f.validate(); err != nil {
			return nil, fmt.Errorf("fault %d: %w", i, err)
		}
		s.faults = append(s.faults, f)
	}
	return s, nil
}

// MustNew is New, panicking on invalid faults (for literals in tests and
// benchmarks).
func MustNew(fs ...Fault) *Schedule {
	s, err := New(fs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len reports the number of faults; zero for a nil schedule.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.faults)
}

// Faults returns a copy of the fault list.
func (s *Schedule) Faults() []Fault {
	if s == nil {
		return nil
	}
	out := make([]Fault, len(s.faults))
	copy(out, s.faults)
	return out
}

// Check verifies that every fault's node and rail indices fit a cluster of
// the given shape.
func (s *Schedule) Check(nodes, rails int) error {
	if s == nil {
		return nil
	}
	for i, f := range s.faults {
		if f.Node >= nodes {
			return fmt.Errorf("faults: fault %d targets node %d, cluster has %d", i, f.Node, nodes)
		}
		if f.Rail >= rails {
			return fmt.Errorf("faults: fault %d targets rail %d, cluster has %d", i, f.Rail, rails)
		}
	}
	return nil
}

// RailState returns the combined bandwidth fraction of (node, rail) at
// virtual time t — 1 healthy, 0 down, in between degraded (overlapping
// degradations compound multiplicatively) — and the horizon until which
// that fraction holds. The pair is exactly the piecewise-constant rate
// profile sim.Resource.SetRate consumes.
func (s *Schedule) RailState(node, rail int, t sim.Time) (frac float64, until sim.Time) {
	frac, until = 1, Forever
	if s == nil {
		return
	}
	for _, f := range s.faults {
		if !f.applies(node, rail) {
			continue
		}
		ff, fu := f.state(t)
		frac *= ff
		if fu < until {
			until = fu
		}
	}
	return
}

// Fraction returns the bandwidth fraction of (node, rail) at t.
func (s *Schedule) Fraction(node, rail int, t sim.Time) float64 {
	f, _ := s.RailState(node, rail, t)
	return f
}

// NextUp returns the earliest time >= t at which (node, rail) carries
// traffic again, or Forever if it never recovers.
func (s *Schedule) NextUp(node, rail int, t sim.Time) sim.Time {
	for i := 0; i < 1<<20; i++ {
		frac, until := s.RailState(node, rail, t)
		if frac > 0 {
			return t
		}
		if until >= Forever {
			return Forever
		}
		t = until
	}
	return Forever
}

// SteadyFraction reports the time-invariant bandwidth share of (node,
// rail): the product of the fractions of faults afflicting the rail for
// the entire run (From == 0, Until == Forever). Transient windows do not
// count — algorithm planners that must agree on a single number across
// ranks regardless of when each rank asks use this, leaving transient
// rerouting to the transport layer. A whole-run Flap contributes its
// duty-cycle average.
func (s *Schedule) SteadyFraction(node, rail int) float64 {
	if s == nil {
		return 1
	}
	frac := 1.0
	for _, f := range s.faults {
		if !f.applies(node, rail) || f.From != 0 || f.Until < Forever {
			continue
		}
		switch f.Kind {
		case Down:
			return 0
		case Degrade:
			frac *= f.Fraction
		case Flap:
			frac *= 1 - float64(f.DownFor)/float64(f.Period)
		}
	}
	return frac
}

// ExtraLatency sums the per-message startup penalties of every Latency
// fault active on (node, rail) at t.
func (s *Schedule) ExtraLatency(node, rail int, t sim.Time) sim.Duration {
	if s == nil {
		return 0
	}
	var extra sim.Duration
	for _, f := range s.faults {
		if f.Kind == Latency && f.applies(node, rail) && t >= f.From && t < f.Until {
			extra += f.Extra
		}
	}
	return extra
}

// Window is one maximal span of constant rail state, for rendering fault
// timelines into traces.
type Window struct {
	From, To sim.Time
	Fraction float64
	Extra    sim.Duration
}

// Windows enumerates the non-healthy windows of (node, rail) intersected
// with [from, to): every maximal span where the rail is down, degraded, or
// latency-elevated.
func (s *Schedule) Windows(node, rail int, from, to sim.Time) []Window {
	var out []Window
	if s == nil {
		return out
	}
	for t := from; t < to; {
		frac, until := s.RailState(node, rail, t)
		extra := s.ExtraLatency(node, rail, t)
		end := minTime(until, to)
		if frac < 1 || extra > 0 {
			if n := len(out); n > 0 && out[n-1].To == t &&
				out[n-1].Fraction == frac && out[n-1].Extra == extra {
				out[n-1].To = end // merge adjacent equal windows
			} else {
				out = append(out, Window{From: t, To: end, Fraction: frac, Extra: extra})
			}
		}
		if until >= Forever {
			break
		}
		t = until
	}
	return out
}

func (w Window) String() string {
	switch {
	case w.Fraction <= 0:
		return "down"
	case w.Fraction < 1 && w.Extra > 0:
		return fmt.Sprintf("%.0f%%+%v", w.Fraction*100, w.Extra)
	case w.Fraction < 1:
		return fmt.Sprintf("%.0f%% bw", w.Fraction*100)
	default:
		return fmt.Sprintf("+%v latency", w.Extra)
	}
}

// Spec renders the schedule in the textual format Parse accepts, one fault
// per line.
func (s *Schedule) String() string {
	if s == nil || len(s.faults) == 0 {
		return "(healthy)"
	}
	lines := make([]string, len(s.faults))
	for i, f := range s.faults {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// Random derives a schedule deterministically from a seed: each rail of
// each node independently draws one fault (or none) with windows inside
// [0, horizon). The same seed always yields the same schedule.
func Random(seed int64, nodes, rails int, horizon sim.Time) *Schedule {
	if horizon <= 0 {
		panic("faults: Random needs a positive horizon")
	}
	rng := rand.New(rand.NewSource(seed))
	span := func(lo, hi float64) (sim.Time, sim.Time) {
		h := float64(horizon)
		from := sim.Time(h * lo * rng.Float64())
		until := from + sim.Time(h*hi*(0.1+0.9*rng.Float64()))
		if until > horizon {
			until = horizon
		}
		return from, until
	}
	var fs []Fault
	for n := 0; n < nodes; n++ {
		for r := 0; r < rails; r++ {
			switch roll := rng.Float64(); {
			case roll < 0.4: // healthy rail
			case roll < 0.6:
				from, until := span(0.5, 0.5)
				fs = append(fs, Fault{Kind: Down, Node: n, Rail: r, From: from, Until: until})
			case roll < 0.8:
				from, until := span(0.3, 0.7)
				fs = append(fs, Fault{Kind: Degrade, Node: n, Rail: r,
					Fraction: 0.25 + 0.5*rng.Float64(), From: from, Until: until})
			default:
				from, _ := span(0.3, 0)
				period := sim.Duration(float64(horizon) * (0.05 + 0.15*rng.Float64()))
				fs = append(fs, Fault{Kind: Flap, Node: n, Rail: r,
					Period: period, DownFor: sim.Duration(float64(period) * (0.2 + 0.3*rng.Float64())),
					From: from, Until: horizon})
			}
		}
	}
	s, err := New(fs...)
	if err != nil {
		panic(err) // generator bug, not user input
	}
	return s
}
