package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// busyGoroutines counts the goroutines that are not workers parked on the
// free list (a coroutine counts as a goroutine): test goroutines and
// running or parked processes.
func busyGoroutines() int { return runtime.NumGoroutine() - len(idleWorkers) }

// dropIdleWorkers empties the free list, so a test can count what one
// engine puts there: it stops every idle worker, which ends its coroutine.
func dropIdleWorkers() {
	for {
		select {
		case w := <-idleWorkers:
			w.stop()
		default:
			return
		}
	}
}

// quietGoroutines is busyGoroutines once it holds still: the goroutine of
// the test before this one signals its parent before it exits, so a single
// read may count it, and a baseline one too high fails settle for the lack
// of a goroutine this test never had. Two reads a millisecond apart that
// agree have seen it go.
func quietGoroutines() int {
	n := busyGoroutines()
	for {
		time.Sleep(time.Millisecond)
		m := busyGoroutines()
		if m == n {
			return n
		}
		n = m
	}
}

// settle waits for the free list to hold want workers and for every other
// goroutine started since before was sampled, bar leaked, to be gone.
func settle(t *testing.T, before, leaked, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for (len(idleWorkers) != want || busyGoroutines() != before+leaked) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if idle, busy := len(idleWorkers), busyGoroutines(); idle != want || busy != before+leaked {
		t.Fatalf("%d idle workers and %d other goroutines, want %d and %d", idle, busy, want, before+leaked)
	}
}

// TestWorkerFreeList: however a process body ends, the list stays
// consistent. A body that returns or panics hands its worker to the next
// engine; one that calls runtime.Goexit takes the coroutine with it, and
// the goroutine that called Run too; one a deadlock leaves parked keeps
// it. None of them is on the list twice or on the list while it still runs
// something.
func TestWorkerFreeList(t *testing.T) {
	for _, tc := range []struct {
		name    string
		body    func(e *Engine, p *Proc)
		wantErr string // substring of Run's error, "" for nil
		goexit  bool   // Run's goroutine ends instead of returning
		idle    int    // workers on the list afterwards
		leaked  int    // goroutines parked for good
	}{
		{name: "returns", body: func(e *Engine, p *Proc) { p.Sleep(Microsecond) }, idle: 1},
		{name: "panics", body: func(e *Engine, p *Proc) { p.Sleep(Microsecond); panic("boom") },
			wantErr: `sim: process "p" (id 0) panicked: boom`, idle: 1},
		{name: "goexit", body: func(e *Engine, p *Proc) { p.Sleep(Microsecond); runtime.Goexit() }, goexit: true, idle: 0},
		{name: "deadlocked", body: func(e *Engine, p *Proc) { e.NewCounter("never").WaitGE(p, 1) },
			wantErr: "sim: deadlock", idle: 0, leaked: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dropIdleWorkers()
			before := quietGoroutines()
			e := NewEngine()
			e.Spawn("p", func(p *Proc) { tc.body(e, p) })
			// Run on a helper goroutine, which a Goexit in the body ends
			// before Run can return.
			var err error
			returned := false
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				err = e.Run()
				returned = true
			}()
			wg.Wait()
			if returned == tc.goexit {
				t.Fatalf("Run returned: %v, want %v", returned, !tc.goexit)
			}
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run = %v, want %q", err, tc.wantErr)
			}
			if st := e.Stats(); st.Finished != 1-tc.leaked {
				t.Errorf("%d processes counted finished, want %d", st.Finished, 1-tc.leaked)
			}
			settle(t, before, tc.leaked, tc.idle)

			// The next engine takes what is on the list before it starts a
			// goroutine, and its two finished processes both end up there.
			duringRun := -1
			e = NewEngine()
			e.Spawn("a", func(p *Proc) { p.Sleep(Microsecond) })
			e.Spawn("b", func(p *Proc) { duringRun = len(idleWorkers) })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if duringRun != 0 {
				t.Errorf("%d workers idle while two processes ran, want 0", duringRun)
			}
			settle(t, before, tc.leaked, 2)
		})
	}
}

// TestGoexitInBodyEndsRunsGoroutine: a body that calls runtime.Goexit —
// what t.Fatal does — ends the goroutine that called Run, after its own
// deferred calls and before Run can return, so a failing rank fails its
// test instead of turning up as the deadlock of the ranks it left waiting.
// The process is counted finished, the engine answers its audits, and the
// others stay parked as after a deadlock.
func TestGoexitInBodyEndsRunsGoroutine(t *testing.T) {
	dropIdleWorkers()
	before := quietGoroutines()
	e := NewEngine()
	never := e.NewCounter("never")
	var trail []string
	e.Spawn("waits", func(p *Proc) {
		never.WaitGE(p, 1)
		trail = append(trail, "waiter resumed")
	})
	e.Spawn("exits", func(p *Proc) {
		defer func() { trail = append(trail, "body's deferred call") }()
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		defer func() { trail = append(trail, "caller's deferred call") }()
		err := e.Run()
		trail = append(trail, fmt.Sprint("Run returned ", err))
	}()
	<-ended
	if got, want := fmt.Sprint(trail), "[body's deferred call caller's deferred call]"; got != want {
		t.Fatalf("trail %v, want %v", got, want)
	}
	if audit := fmt.Sprint(e.CheckQuiescent()); !strings.Contains(audit, "1 of 2 processes never finished") {
		t.Errorf("CheckQuiescent after the Goexit = %s, want 1 of 2 processes unfinished", audit)
	}
	if st := e.Stats(); st.Finished != 1 || st.Processes != 2 {
		t.Errorf("%d of %d processes finished, want 1 of 2", st.Finished, st.Processes)
	}
	settle(t, before, 1, 0)
}

// TestWorkerFreeListIsBounded: a world larger than the list leaves it
// full, and the workers that found no room have exited.
func TestWorkerFreeListIsBounded(t *testing.T) {
	dropIdleWorkers()
	before := quietGoroutines()
	e := NewEngine()
	for i := 0; i < maxIdleWorkers+8; i++ {
		e.Spawn("p", func(p *Proc) { p.Sleep(Microsecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	settle(t, before, 0, maxIdleWorkers)
}

// TestEnginesShareWorkers runs engines from two goroutines at once (the
// explorer does, one per placement): they draw on one free list, and under
// -race a worker carrying anything from one engine into the other shows.
func TestEnginesShareWorkers(t *testing.T) {
	const rounds, procs = 200, 4
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				e := NewEngine()
				c := e.NewCounter("arrived")
				sum := 0
				for i := 0; i < procs; i++ {
					e.Spawn("p", func(p *Proc) {
						p.Sleep(Duration(i+1) * Microsecond)
						sum += i // processes of one engine run one at a time
						c.Add(1)
						c.WaitGE(p, procs)
					})
				}
				if err := e.Run(); err != nil {
					t.Error(err)
					return
				}
				if st := e.Stats(); sum != procs*(procs-1)/2 || st.Finished != procs || st.Now != Time(procs*Microsecond) {
					t.Errorf("round %d: sum %d, %d finished, ended at %v", r, sum, st.Finished, st.Now)
					return
				}
			}
		}()
	}
	wg.Wait()
}
