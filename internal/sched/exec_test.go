package sched

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/topology"
)

// TestRunnerBuildsOncePerWorld: the ranks of one world share one built
// schedule per message size; a new world, or a new size in the same
// world, builds again.
func TestRunnerBuildsOncePerWorld(t *testing.T) {
	topo := topology.New(2, 2, 1)
	n := topo.Size()
	var mu sync.Mutex
	builds := 0
	run := Runner(func(topo topology.Cluster, msg int) *Schedule {
		mu.Lock()
		builds++
		mu.Unlock()
		return Ring(topo, msg)
	})
	allgather := func(t *testing.T, msgs ...int) {
		t.Helper()
		w := mpi.New(mpi.Config{Topo: topo, Params: netmodel.Thor()})
		err := w.Run(func(p *mpi.Proc) {
			for _, m := range msgs {
				send := mpi.NewBuf(m)
				for i := range send.Data() {
					send.Data()[i] = patByte(p.Rank(), i)
				}
				recv := mpi.NewBuf(n * m)
				run(p, w, send, recv)
				for i, b := range recv.Data() {
					if want := patByte(i/m, i%m); b != want {
						t.Errorf("msg %d rank %d byte %d = %#02x, want %#02x", m, p.Rank(), i, b, want)
						break
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allgather(t, 16, 32, 16)
	if builds != 2 {
		t.Errorf("one world, sizes 16/32/16 on %d ranks: %d builds, want 2", n, builds)
	}
	allgather(t, 16)
	if builds != 3 {
		t.Errorf("a second world must build its own schedule: %d builds, want 3", builds)
	}
}

// TestExecuteLeavesScheduleUntouched: every rank of a world executes the
// same *Schedule (and *Goal), so both interpreters must only read them.
func TestExecuteLeavesScheduleUntouched(t *testing.T) {
	topo := topology.New(2, 2, 2)
	prm := netmodel.Thor()
	for _, s := range []*Schedule{
		Ring(topo, 4096),
		RecursiveDoubling(topo, 4096),
		TwoPhaseMHA(topo, prm, 64<<10, MHAOptions{Offload: AutoOffload}),
	} {
		before := s.Clone()
		if _, err := Simulate(topo, prm, s); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !reflect.DeepEqual(s, before) {
			t.Errorf("Execute modified the shared schedule %s", s.Name)
		}
		g, gBefore := AllgatherGoal(topo.Size()), AllgatherGoal(topo.Size())
		if _, err := SimulateGoal(topo, prm, s, g); err != nil {
			t.Fatalf("%s under ExecuteGoal: %v", s.Name, err)
		}
		if !reflect.DeepEqual(s, before) || !reflect.DeepEqual(g, gBefore) {
			t.Errorf("ExecuteGoal modified the shared schedule or goal of %s", s.Name)
		}
	}
}

// TestExecuteRefusesReducingTransfers: an allgather has no reducer, so a
// reducing transfer under Execute stops the run and names the cause, as
// it does under ExecuteGoal with a nil reducer; copying it like a plain
// transfer would report a wrong result as verified.
func TestExecuteRefusesReducingTransfers(t *testing.T) {
	topo := topology.New(1, 2, 1)
	prm := netmodel.Thor()
	s := Ring(topo, 8)
	for i := range s.Steps[0].Xfers {
		s.Steps[0].Xfers[i].Red = true
	}
	if _, err := Analyze(s, prm); err != nil {
		t.Fatalf("the analyzer is expected to accept the schedule (the executor is the gate): %v", err)
	}
	const want = "schedule has reducing transfers but no reducer was supplied"
	if _, err := Simulate(topo, prm, s); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Execute: err = %v, want one naming %q", err, want)
	}
	g := AllgatherGoal(topo.Size())
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
	phantom := func(rng Range) mpi.Buf { return mpi.Phantom(rng.Count * s.Msg) }
	err := w.Run(func(p *mpi.Proc) { ExecuteGoal(p, w.CommWorld(), s, NewIndex(s), g, phantom, phantom, nil) })
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ExecuteGoal without a reducer: err = %v, want one naming %q", err, want)
	}
}
