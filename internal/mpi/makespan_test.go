package mpi

import (
	"testing"

	"mha/internal/faults"
	"mha/internal/sim"
	"mha/internal/topology"
)

// TestMakespanIsTheLatestRankFinish: Makespan is the stopwatch of every
// measurement in the repo — the latest time a rank's body returned — and
// not the engine's clock, which runs on while anything is still queued.
// A fault edge is not an event here (a rail's rate is looked up, not
// pushed), so the test leaves one thing queued behind it: a send pinned,
// on the naive transport, to a rail that is down until long after the
// ranks are done.
func TestMakespanIsTheLatestRankFinish(t *testing.T) {
	const edge = sim.Time(sim.Millisecond)
	w := New(Config{
		Topo:       topology.New(2, 2, 2),
		Faults:     faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 1, Until: edge}),
		FaultBlind: true,
	})
	if got := w.Makespan(); got != 0 {
		t.Fatalf("Makespan before Run = %v, want 0", got)
	}
	finish := make([]sim.Time, w.Topo().Size())
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		n := p.Size()
		right, left := (p.Rank()+1)%n, (p.Rank()+n-1)%n
		for step := 0; step < n-1; step++ {
			p.SendRecv(c, right, step, Phantom(64<<10), left, step, ViaRail(0))
		}
		if p.Rank() == 0 {
			p.Isend(c, n-1, n, Phantom(8), ViaRail(1)) // nobody waits for it
		}
		// Ranks leave at different times, rank 1 last.
		p.Sleep(sim.Duration((p.Rank()*3)%n) * 5 * sim.Microsecond)
		finish[p.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	var want sim.Time
	for _, f := range finish {
		want = max(want, f)
	}
	if want == 0 || want >= edge {
		t.Fatalf("test set-up: ranks finished at %v, expected inside (0, %v)", finish, edge)
	}
	if got := w.Makespan(); got != want {
		t.Errorf("Makespan = %v, want the latest rank finish %v (of %v)", got, want, finish)
	}
	if clock := w.Engine().Stats().Now; w.Makespan() >= clock {
		t.Errorf("Makespan %v is not before the engine clock %v, which should have run past the fault edge at %v",
			w.Makespan(), clock, edge)
	}
}
