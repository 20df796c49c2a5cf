package sched

import (
	"fmt"
	"math"

	"mha/internal/faults"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// Rail health enters the schedule layer as a plain vector: health[r] is
// rail r's surviving bandwidth fraction on every node, 1 healthy, 0 down,
// in between degraded. This is the steady-state summary the autotuner
// service (internal/tuner) keys its cache on — a schedule chosen for a
// machine whose rail 1 runs at half rate is a different artifact from the
// healthy machine's, and the synthesizer should know while searching, not
// discover it in simulation. A nil vector means every rail is healthy and
// selects exactly the original (health-oblivious) code paths.

// ValidHealth checks a health vector against a rail count: nil is always
// valid (all healthy); otherwise the vector must have one entry per rail,
// every entry in [0, 1], and at least one rail alive.
func ValidHealth(health []float64, hcas int) error {
	if health == nil {
		return nil
	}
	if len(health) != hcas {
		return fmt.Errorf("sched: health vector has %d entries for %d rails", len(health), hcas)
	}
	alive := false
	for r, h := range health {
		if math.IsNaN(h) || h < 0 || h > 1 {
			return fmt.Errorf("sched: rail %d health %v outside [0,1]", r, h)
		}
		if h > 0 {
			alive = true
		}
	}
	if !alive {
		return fmt.Errorf("sched: every rail down")
	}
	return nil
}

// healthOf reads one rail's fraction, treating nil as fully healthy.
func healthOf(health []float64, rail int) float64 {
	if health == nil {
		return 1
	}
	return health[rail]
}

// healthAllUp reports whether no rail is fully down.
func healthAllUp(health []float64) bool {
	for _, h := range health {
		if h <= 0 {
			return false
		}
	}
	return true
}

// ApplyHealth returns a schedule with no transfer pinned to a down rail:
// every ViaRail transfer whose rail has health <= 0 is rerouted to the
// ViaHCA policy transport, whose runtime striping (and the analyzer's
// pricing) spreads the bytes across the surviving rails. Rerouting never
// breaks the other invariants — hold tracking and completeness only see
// byte windows, and rail exclusivity exempts policy transfers — so a
// schedule Analyze accepts stays acceptable after repair. When nothing
// needs repair the original schedule is returned unchanged.
func ApplyHealth(s *Schedule, health []float64) *Schedule {
	if health == nil || healthAllUp(health) {
		return s
	}
	dirty := false
	for _, st := range s.Steps {
		for _, t := range st.Xfers {
			if t.Via == ViaRail && t.Rail < len(health) && health[t.Rail] <= 0 {
				dirty = true
			}
		}
	}
	if !dirty {
		return s
	}
	out := s.Clone()
	for si := range out.Steps {
		xs := out.Steps[si].Xfers
		for xi := range xs {
			if xs[xi].Via == ViaRail && xs[xi].Rail < len(health) && health[xs[xi].Rail] <= 0 {
				xs[xi].Via = ViaHCA
				xs[xi].Rail = 0
			}
		}
	}
	return out
}

// HealthFaults converts a health vector into the equivalent steady fault
// schedule: one open-ended Down per dead rail, one open-ended Degrade per
// partially degraded rail, on every node. A nil or fully healthy vector
// yields nil (no faults), so SimulateHealth degenerates to Simulate.
func HealthFaults(health []float64) (*faults.Schedule, error) {
	var fs []faults.Fault
	for r, h := range health {
		switch {
		case h >= 1:
		case h <= 0:
			fs = append(fs, faults.Fault{Kind: faults.Down, Node: faults.AllNodes, Rail: r})
		default:
			fs = append(fs, faults.Fault{Kind: faults.Degrade, Node: faults.AllNodes, Rail: r, Fraction: h})
		}
	}
	if len(fs) == 0 {
		return nil, nil
	}
	return faults.New(fs...)
}

// SimulateHealth measures the schedule's makespan on a world whose rails
// run at the health vector's steady fractions (the runtime's health-aware
// transport reacts exactly as it would under the equivalent fault
// schedule). The schedule should have been repaired with ApplyHealth
// first: a transfer pinned to a permanently down rail never completes.
func SimulateHealth(topo topology.Cluster, prm *netmodel.Params, s *Schedule, health []float64) (sim.Duration, error) {
	if err := ValidHealth(health, topo.HCAs); err != nil {
		return 0, err
	}
	fsched, err := HealthFaults(health)
	if err != nil {
		return 0, err
	}
	ix := NewIndex(s)
	return simulate(topo, prm, fsched, func(p *mpi.Proc, w *mpi.World) {
		Execute(p, w, s, ix, mpi.Phantom(s.Msg), mpi.Phantom(s.Msg*p.Size()))
	})
}
