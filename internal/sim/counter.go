package sim

import "fmt"

// A Counter is a monotonic condition variable in virtual time. Producers
// advance it with Add; consumers block until it reaches a
// threshold with WaitGE. It models the shared-memory chunk-availability
// counters the paper's phase-3 broadcast uses: the node leader bumps the
// counter as each chunk lands in shared memory, and non-leader ranks wait
// on it before copying the chunk out.
type Counter struct {
	label
	eng     *Engine
	val     int64
	waiters []*counterWaiter
}

// A counterWaiter is a process's pending WaitGE; it lives in the Proc.
type counterWaiter struct {
	p         *Proc
	threshold int64
	released  bool
}

// NewCounter creates a named counter starting at zero.
func (e *Engine) NewCounter(name string) *Counter {
	return e.counterSlab.new(Counter{label: label{kind: kindCounter, name: name}, eng: e})
}

// Value returns the counter's current value.
func (c *Counter) Value() int64 {
	return c.val
}

// Add advances the counter by delta (must be non-negative) and releases any
// waiters whose thresholds are now met. Waiters are released in the order
// they started waiting, each as its own scheduled event, preserving the
// engine's one-runnable-process determinism.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic(fmt.Sprintf("sim: negative Add on counter %s", c.name))
	}
	c.eng.note(&c.label)
	c.val += delta
	c.release()
}

// release schedules a wake event for every satisfied waiter. Each waiter
// wakes via its own event so that at most one simulated process is runnable
// at a time.
func (c *Counter) release() {
	e := c.eng
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.released && c.val >= w.threshold {
			w.released = true
			e.schedule(e.Now(), &w.p.label, w.p.fire)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// WaitGE blocks the calling process until the counter's value is at least
// threshold. If it already is, WaitGE returns immediately without yielding.
func (c *Counter) WaitGE(p *Proc, threshold int64) {
	e := c.eng
	if p.eng != e {
		panic("sim: WaitGE across engines")
	}
	e.note(&c.label)
	if c.val >= threshold {
		return
	}
	p.ctr = counterWaiter{p: p, threshold: threshold}
	c.waiters = append(c.waiters, &p.ctr)
	e.block(p, procState{kind: stCounter, obj: c.name, n: threshold, m: c.val})
}
