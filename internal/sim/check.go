package sim

import (
	"fmt"
	"strings"
)

// A ClockWatcher observes every clock advance of the engine: it is invoked
// with the time being left and the time being entered, strictly before the
// advance takes effect. The watcher runs inside the event loop, between two
// events, so it must not call engine methods; recording the pair (e.g. to
// assert monotonicity afterwards) is the intended use.
type ClockWatcher func(from, to Time)

// SetClockWatcher installs fn as the engine's clock observer (nil removes
// it). Install before Run; the engine never advances the clock earlier.
func (e *Engine) SetClockWatcher(fn ClockWatcher) {
	e.watcher = fn
}

// SetItemDescriber installs fn as the renderer CheckQuiescent uses to
// describe leaked mailbox items (nil restores the anonymous count-only
// report). A layer that knows its payload types — e.g. the MPI runtime,
// whose mailboxes carry messages tagged with an owning communicator —
// installs a describer so a leak under concurrent jobs names the job that
// sent it instead of reporting an undifferentiated count.
func (e *Engine) SetItemDescriber(fn func(interface{}) string) {
	e.describe = fn
}

// CheckQuiescent audits the engine after Run has returned and reports every
// violated teardown invariant:
//
//   - every spawned process finished (no leaked simulated processes),
//   - no events remain pending,
//   - every resource is idle (freeAt <= now) and its cumulative busy time
//     does not exceed the makespan (FIFO conservation: occupations of one
//     resource never overlap),
//   - every mailbox is drained (no delivered-but-unclaimed messages).
//
// A nil error means the run tore down cleanly. Calling it before Run, or
// after a Run that returned an error, reports those states too.
func (e *Engine) CheckQuiescent() error {
	var bad []string
	if !e.started {
		bad = append(bad, "Run was never called")
	}
	if e.failure != nil {
		bad = append(bad, fmt.Sprintf("run failed: %v", e.failure))
	}
	if e.finished != len(e.procs) {
		bad = append(bad, fmt.Sprintf("%d of %d processes never finished",
			len(e.procs)-e.finished, len(e.procs)))
	}
	if n := e.events.n; n > 0 {
		bad = append(bad, fmt.Sprintf("%d events still pending at t=%v", n, e.Now()))
	}
	for _, r := range e.resources {
		owned := ""
		if r.lastOwner != "" {
			owned = fmt.Sprintf(" (last acquired by %s)", r.lastOwner)
		}
		if r.freeAt > e.Now() {
			bad = append(bad, fmt.Sprintf("resource %s busy until %v, past end of run %v%s",
				r.name, r.freeAt, e.Now(), owned))
		}
		if r.busy < 0 || Time(r.busy) > e.Now() {
			bad = append(bad, fmt.Sprintf("resource %s busy time %v exceeds makespan %v%s",
				r.name, r.busy, e.Now(), owned))
		}
	}
	for _, m := range e.mailboxes {
		if n := len(m.items); n > 0 {
			line := fmt.Sprintf("mailbox %s holds %d unclaimed messages", m.name, n)
			if m.owner != "" {
				line += fmt.Sprintf(" (owner %s)", m.owner)
			}
			if e.describe != nil {
				line += ": " + e.describe(m.items[0].v)
				if n > 1 {
					line += ", ..."
				}
			}
			bad = append(bad, line)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("sim: not quiescent: %s", strings.Join(bad, "; "))
}
