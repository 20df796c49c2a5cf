package mpi

import (
	"fmt"
	"sort"

	"mha/internal/faults"
	"mha/internal/sim"
)

// RailHealth is the per-node rail-health registry: the view of the fault
// schedule that transport selection consults before committing traffic to
// a rail. With no schedule attached every query reports full health, so
// the registry can be threaded through hot paths unconditionally.
type RailHealth struct {
	sched *faults.Schedule // nil: always healthy
	hcas  int
}

// Health returns the world's rail-health registry (never nil).
func (w *World) Health() *RailHealth { return w.health }

// Faulty reports whether a fault schedule is attached at all — the hot
// paths' cheap guard before any per-rail lookups.
func (h *RailHealth) Faulty() bool { return h.sched != nil }

// Fraction reports the surviving bandwidth fraction of one node's rail at
// virtual time t (1 healthy, 0 down).
func (h *RailHealth) Fraction(node, rail int, t sim.Time) float64 {
	if h.sched == nil {
		return 1
	}
	return h.sched.Fraction(node, rail, t)
}

// Up reports whether one node's rail can carry traffic at t.
func (h *RailHealth) Up(node, rail int, t sim.Time) bool {
	return h.Fraction(node, rail, t) > 0
}

// LinkFraction reports the effective fraction of the rail-r link between
// two nodes: a transfer occupies the sender's transmit and the receiver's
// receive engine on the same rail index, so the link runs at the worse of
// the two ends.
func (h *RailHealth) LinkFraction(srcNode, dstNode, rail int, t sim.Time) float64 {
	f := h.Fraction(srcNode, rail, t)
	if g := h.Fraction(dstNode, rail, t); g < f {
		f = g
	}
	return f
}

// LinkExtraLatency reports the added per-message startup on the rail-r
// link between two nodes (latency faults on either end accumulate).
func (h *RailHealth) LinkExtraLatency(srcNode, dstNode, rail int, t sim.Time) sim.Duration {
	if h.sched == nil {
		return 0
	}
	extra := h.sched.ExtraLatency(srcNode, rail, t)
	if dstNode != srcNode {
		extra += h.sched.ExtraLatency(dstNode, rail, t)
	}
	return extra
}

// NextUp reports the earliest time >= t at which the link recovers, or
// faults.Forever if it never does.
func (h *RailHealth) NextUp(srcNode, dstNode, rail int, t sim.Time) sim.Time {
	if h.sched == nil {
		return t
	}
	up := h.sched.NextUp(srcNode, rail, t)
	for {
		other := h.sched.NextUp(dstNode, rail, up)
		if other == up || up >= faults.Forever {
			return up
		}
		up = h.sched.NextUp(srcNode, rail, other)
		if up == other {
			return up
		}
	}
}

// PlanRails reports how many of a node's rails an algorithm should plan
// for over the whole run: the rounded sum of each rail's steady (whole-
// run) bandwidth fraction, at least 1 while anything survives. It is a
// pure function of the schedule — every rank of the node gets the same
// answer no matter when it asks — which is what offload planners need to
// stay in agreement. Transiently-faulted rails still count in full; the
// transport layer routes around those windows dynamically.
func (h *RailHealth) PlanRails(node int) int {
	if h.sched == nil {
		return h.hcas
	}
	sum, any := 0.0, false
	for r := 0; r < h.hcas; r++ {
		f := h.sched.SteadyFraction(node, r)
		if f > 0 {
			any = true
		}
		sum += f
	}
	n := int(sum + 0.5)
	if n < 1 && any {
		n = 1
	}
	return n
}

// bestRail picks the healthiest rail of the src->dst link at t, excluding
// `avoid` (pass -1 to consider every rail): the up rail with the highest
// surviving fraction, ties to the lowest index. Candidates are bounded to
// [0, lim) — on heterogeneous pairs the caller passes the weaker
// endpoint's rail count so the pick always exists at both ends. If every
// candidate is down, it returns the rail that recovers earliest (again
// ties to the lowest index) — the caller queues on it and the resource
// model charges the remaining outage. The second result reports whether
// the chosen rail is up right now.
func (h *RailHealth) bestRail(srcNode, dstNode, rail int, avoid int, lim int, t sim.Time) (int, bool) {
	_ = rail // reserved: preferred-rail affinity
	if lim <= 0 || lim > h.hcas {
		lim = h.hcas
	}
	best, bestFrac := -1, 0.0
	for r := 0; r < lim; r++ {
		if r == avoid {
			continue
		}
		if f := h.LinkFraction(srcNode, dstNode, r, t); f > bestFrac {
			best, bestFrac = r, f
		}
	}
	if best >= 0 {
		return best, true
	}
	// Everything (considered) is down: earliest recovery wins.
	soonest, at := 0, faults.Forever
	for r := 0; r < lim; r++ {
		if up := h.NextUp(srcNode, dstNode, r, t); up < at {
			soonest, at = r, up
		}
	}
	return soonest, false
}

// RailBacklog reports how much queued transfer work a node's rails still
// hold at virtual time t: the sum, over every rail's transmit and receive
// engine, of how far its next-free time lies in the future. It is the
// "how contended is this node right now" signal placement policies
// (internal/cluster's rail-aware placer) consult before co-locating a new
// job with running ones.
func (w *World) RailBacklog(node int, t sim.Time) sim.Duration {
	var sum sim.Duration
	for _, a := range w.nodes[node].hcas {
		if f := a.tx.FreeAt(); f > t {
			sum += sim.Duration(f - t)
		}
		if f := a.rx.FreeAt(); f > t {
			sum += sim.Duration(f - t)
		}
	}
	return sum
}

// RailStat summarizes one rail's utilization after a run: the cumulative
// busy time and acquisition counts of its transmit and receive engines.
type RailStat struct {
	Node, Rail     int
	TxBusy, RxBusy sim.Duration
	TxUses, RxUses int64
}

// RailStats reports per-rail utilization across every node, in (node,
// rail) order — the "where did the time go" summary degraded-mode runs
// print alongside their totals.
func (w *World) RailStats() []RailStat {
	var out []RailStat
	for _, nd := range w.nodes {
		for r, a := range nd.hcas {
			out = append(out, RailStat{
				Node: nd.id, Rail: r,
				TxBusy: a.tx.BusyTime(), RxBusy: a.rx.BusyTime(),
				TxUses: a.tx.Uses(), RxUses: a.rx.Uses(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Rail < out[j].Rail
	})
	return out
}

func (s RailStat) String() string {
	return fmt.Sprintf("node%d.rail%d tx=%v/%d rx=%v/%d",
		s.Node, s.Rail, s.TxBusy, s.TxUses, s.RxBusy, s.RxUses)
}
