package sim

import "fmt"

// A Resource is a FIFO-serialized server in virtual time: a network rail,
// a DMA engine, a memory bus. A transfer occupies the resource for its
// duration; requests issued while the resource is busy queue behind it.
//
// Because the engine serializes process execution in virtual-time order,
// acquisitions always arrive with non-decreasing request times, which makes
// the single freeAt register an exact FIFO queue model.
type Resource struct {
	label
	eng       *Engine
	freeAt    Time
	busy      Duration // total occupied time, for utilization reporting
	uses      int64
	rate      RateFunc // nil: full speed forever
	lastOwner string   // who acquired it last ("" = never attributed)
}

// NewResource creates a named resource bound to the engine.
func (e *Engine) NewResource(name string) *Resource {
	r := e.resourceSlab.new(Resource{label: label{kind: kindResource, name: name}, eng: e})
	e.resources = append(e.resources, r)
	return r
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// A RateFunc is a piecewise-constant service-rate profile: at virtual time
// t the resource serves at `fraction` of its nominal speed (0 means
// unavailable — service pauses) and that fraction holds until `until`
// (exclusive; TimeMax or later means forever). The function must be pure:
// identical t must always yield identical results, or determinism breaks.
type RateFunc func(t Time) (fraction float64, until Time)

// SetRate attaches a service-rate profile to the resource; nil restores
// full speed. It is how fault schedules impose downtime windows and
// degraded-bandwidth spans: an occupation of nominal duration d stretches
// to cover d worth of work at the profile's varying rate, pausing entirely
// through unavailability windows.
func (r *Resource) SetRate(fn RateFunc) {
	r.rate = fn
}

// serviceEnd returns when an occupation of nominal duration d that
// begins at start completes under the resource's rate profile.
func (r *Resource) serviceEnd(start Time, d Duration) Time {
	if r.rate == nil || d == 0 {
		return start + Time(d)
	}
	remaining := float64(d)
	t := start
	for {
		frac, until := r.rate(t)
		if until <= t {
			panic(fmt.Sprintf("sim: rate window on %s does not advance past %v", r.name, t))
		}
		if frac <= 0 {
			if until >= TimeMax {
				panic(fmt.Sprintf("sim: resource %s is permanently unavailable at %v", r.name, t))
			}
			t = until // outage: service pauses until the window ends
			continue
		}
		need := remaining / frac // wall time to finish at this rate
		if span := float64(until - t); need > span && until < TimeMax {
			remaining -= span * frac
			t = until
			continue
		}
		return t + Time(need+0.5)
	}
}

// Acquire occupies the resource for d starting no earlier than the current
// virtual time, queuing behind any in-flight use. It returns the start and
// end times of the occupation. Acquire does not block the caller; callers
// that must wait for completion follow with p.WaitUntil(end).
func (r *Resource) Acquire(d Duration) (start, end Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative acquire on %s", r.name))
	}
	e := r.eng
	e.note(&r.label)
	start = e.Now()
	if r.freeAt > start {
		start = r.freeAt
	}
	end = r.serviceEnd(start, d)
	r.freeAt = end
	r.busy += Duration(end - start)
	r.uses++
	return start, end
}

// AcquireAfter is Acquire but the occupation cannot begin before notBefore.
// It models a pipeline stage that consumes the output of an earlier stage.
func (r *Resource) AcquireAfter(notBefore Time, d Duration) (start, end Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative acquire on %s", r.name))
	}
	e := r.eng
	e.note(&r.label)
	start = e.Now()
	if notBefore > start {
		start = notBefore
	}
	if r.freeAt > start {
		start = r.freeAt
	}
	end = r.serviceEnd(start, d)
	r.freeAt = end
	r.busy += Duration(end - start)
	r.uses++
	return start, end
}

// AcquireTogether occupies every resource in rs for d simultaneously: the
// occupation starts when the last of them becomes free, and all of them are
// then busy until start+d. This models a transfer that needs both endpoints
// (e.g. the sender's HCA transmit engine and the receiver's receive engine).
func AcquireTogether(d Duration, rs ...*Resource) (start, end Time) {
	if len(rs) == 0 {
		panic("sim: AcquireTogether with no resources")
	}
	if d < 0 {
		panic("sim: negative acquire")
	}
	e := rs[0].eng
	start = e.Now()
	for _, r := range rs {
		if r.eng != e {
			panic("sim: AcquireTogether across engines")
		}
		e.note(&r.label)
		if r.freeAt > start {
			start = r.freeAt
		}
	}
	// The transfer is delivered only when the slowest endpoint finishes
	// its share of work; every endpoint stays held until then.
	end = start + Time(d)
	for _, r := range rs {
		if e2 := r.serviceEnd(start, d); e2 > end {
			end = e2
		}
	}
	for _, r := range rs {
		r.freeAt = end
		r.busy += Duration(end - start)
		r.uses++
	}
	return start, end
}

// MarkOwner records who is responsible for the resource's most recent
// acquisition. With several jobs contending for one rail, the quiescence
// audit uses the label to attribute a still-busy resource to a job
// instead of reporting an anonymous leak. An empty label is ignored.
func (r *Resource) MarkOwner(label string) {
	if label == "" {
		return
	}
	r.lastOwner = label
}

// LastOwner returns the most recent MarkOwner label ("" = never marked).
func (r *Resource) LastOwner() string {
	return r.lastOwner
}

// FreeAt reports when the resource next becomes idle. Mid-run callers
// (placement policies) make decisions from the value, so it counts
// toward the step footprint; BusyTime/Uses are post-run statistics and
// deliberately do not.
func (r *Resource) FreeAt() Time {
	r.eng.note(&r.label)
	return r.freeAt
}

// BusyTime reports the cumulative occupied duration.
func (r *Resource) BusyTime() Duration {
	return r.busy
}

// Uses reports how many acquisitions the resource has served.
func (r *Resource) Uses() int64 {
	return r.uses
}

// A Gauge tracks how many operations of some class are concurrently in
// flight in virtual time; cost models use it to apply congestion factors
// (the paper's b and cg terms). Inc takes effect immediately; the matching
// decrement is scheduled for the operation's completion time.
type Gauge struct {
	label
	eng  *Engine
	val  int
	peak int
	dec  func() // the decrement event every DecAt schedules
}

// NewGauge creates a named gauge bound to the engine.
func (e *Engine) NewGauge(name string) *Gauge {
	g := e.gaugeSlab.new(Gauge{label: label{kind: kindGauge, name: name}, eng: e})
	g.dec = func() {
		e.note(&g.label)
		g.val--
		if g.val < 0 {
			panic(fmt.Sprintf("sim: gauge %s went negative", g.name))
		}
	}
	return g
}

// Inc increments the gauge and returns the new value (the operation itself
// is included in its own concurrency count).
func (g *Gauge) Inc() int {
	g.eng.note(&g.label)
	g.val++
	if g.val > g.peak {
		g.peak = g.val
	}
	return g.val
}

// DecAt schedules the gauge to decrement at virtual time at.
func (g *Gauge) DecAt(at Time) {
	g.eng.schedule(max(at, g.eng.now), &g.label, g.dec)
}

// Value returns the current in-flight count.
func (g *Gauge) Value() int {
	g.eng.note(&g.label)
	return g.val
}

// Peak returns the maximum in-flight count observed.
func (g *Gauge) Peak() int {
	return g.peak
}
