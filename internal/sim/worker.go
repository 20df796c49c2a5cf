// A coroutine needs iter.Pull, which is go1.23; go.mod still says 1.22
// because benchmark/go.mod has to say what it says (ROADMAP item 8(iv)).
// This is the only file that imports iter, and without it the package does
// not build: internal/sim requires a go1.23 toolchain.

//go:build go1.23

package sim

import "iter"

// A worker is a coroutine that runs process bodies, one at a time, and
// belongs to the package, not to an engine. Run resumes it; it runs p's
// body until the process parks in block, which yields, or until the body
// has ended, when it yields as an idle worker and waits to be given the
// next process — by any engine, on any goroutine. It is kept because of
// its stack: a coroutine starts on 2 KB like any goroutine and copies its
// stack every time a body outgrows it; an explorer that builds 40 000
// four-rank worlds a pass would pay that 160 000 times.
//
// A worker whose process has ended is still running until it yields, so it
// is never the worker itself that offers it for reuse: Run does, after
// resume has returned (release). A body that ends in runtime.Goexit takes
// the coroutine with it, and one left parked by a deadlock or an
// engine-side panic keeps it for good.
type worker struct {
	p      *Proc                   // the process to run, nil while idle
	resume func() (struct{}, bool) // run the coroutine until it next yields
	yield  func(struct{}) bool     // the coroutine's side: back to whoever resumed it
	stop   func()                  // end an idle worker's coroutine
}

// maxIdleWorkers bounds the coroutines kept parked between runs; beyond it
// a finished worker is stopped. A constant, not a setting: it only has to
// cover the small worlds that are built by the ten thousand (a 1024-rank
// world is built once and its coroutines' cost is lost in its events), and
// 64 idle coroutines cost a few hundred KB whatever the caller does.
const maxIdleWorkers = 64

// idleWorkers is the free list, shared by every engine of the process. It
// carries no simulation state: which worker runs which body changes nothing
// a simulation can observe. The channel is also what orders one goroutine's
// last resume of a worker before another's first.
var idleWorkers = make(chan *worker, maxIdleWorkers)

// startWorker returns a worker that will run p when first resumed: an idle
// one, or a new coroutine.
func startWorker(p *Proc) *worker {
	var w *worker
	select {
	case w = <-idleWorkers:
	default:
		w = new(worker)
		w.resume, w.stop = iter.Pull(func(yield func(struct{}) bool) {
			w.yield = yield
			for {
				w.p.eng.runProc(w.p)
				if !yield(struct{}{}) {
					return // stopped while idle
				}
			}
		})
	}
	w.p = p
	return w
}

// release puts a worker whose process has ended, and which has yielded, on
// the free list, or stops it if the list is full — as it is for most
// workers of a large world, which then cost what they would have cost
// without a list.
func (w *worker) release() {
	w.p = nil
	select {
	case idleWorkers <- w:
	default:
		w.stop()
	}
}
