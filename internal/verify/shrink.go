package verify

import (
	"mha/internal/faults"
	"mha/internal/topology"
)

// Shrink greedily minimizes a failing scenario: it repeatedly tries the
// candidate reductions below (most aggressive first), keeps the first one
// that still fails Check, and stops at a fixed point or after budget
// candidate evaluations. vs must be the violations sc already exhibited;
// Shrink returns the smallest failing scenario found, that scenario's
// violations (remembered from the candidate evaluation that kept it, so
// callers never need an extra Check beyond the budget), and the number of
// candidates evaluated — always <= budget, and with budget <= 0 the
// original scenario comes straight back. Every reduction strictly
// decreases some component (fault count, nodes, ppn, rails, sockets,
// message size, jitter, blindness, layout, seed), so the loop terminates.
func Shrink(sc Scenario, vs []Violation, budget int) (Scenario, []Violation, int) {
	return ShrinkBy(sc, vs, budget, candidates, Scenario.Spec, Scenario.Validate, Check)
}

// ShrinkBy is the greedy loop of every shrinker: from cur, which fails
// with vs, it tries candidates(cur) in order, skipping one whose key
// equals cur's or that valid refuses, and moves to the first that check
// still finds failing; it stops at a fixed point or once budget
// candidates have been checked. It returns the last failing value, its
// violations and the number of checks spent.
func ShrinkBy[T any](cur T, vs []Violation, budget int,
	candidates func(T) []T, key func(T) string, valid func(T) error,
	check func(T) []Violation) (T, []Violation, int) {
	used := 0
	for used < budget {
		improved := false
		curKey := key(cur)
		for _, cand := range candidates(cur) {
			if used >= budget {
				break
			}
			if key(cand) == curKey || valid(cand) != nil {
				continue
			}
			used++
			if cvs := check(cand); len(cvs) > 0 {
				cur, vs = cand, cvs
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return cur, vs, used
}

// candidates proposes one-step reductions of sc, most aggressive first.
func candidates(sc Scenario) []Scenario {
	var out []Scenario
	with := func(mut func(*Scenario)) {
		c := sc
		mut(&c)
		out = append(out, c)
	}
	if sc.Faults.Len() > 0 {
		with(func(c *Scenario) { c.Faults = nil })
		fs := sc.Faults.Faults()
		for i := range fs {
			rest := make([]faults.Fault, 0, len(fs)-1)
			rest = append(rest, fs[:i]...)
			rest = append(rest, fs[i+1:]...)
			if sched, err := faults.New(rest...); err == nil {
				with(func(c *Scenario) { c.Faults = sched })
			}
		}
	}
	if sc.Blind {
		with(func(c *Scenario) { c.Blind = false })
	}
	if sc.Jitter > 0 {
		with(func(c *Scenario) { c.Jitter = 0 })
	}
	if sc.Fabric != "" {
		with(func(c *Scenario) { c.Fabric = "" })
	}
	if len(sc.NodeHCAs) > 0 {
		with(func(c *Scenario) { c.NodeHCAs = nil })
	}
	if len(sc.RailBW) > 0 {
		with(func(c *Scenario) { c.RailBW = nil })
	}
	if sc.Sockets > 1 {
		with(func(c *Scenario) { c.Sockets = 0 })
	}
	for _, n := range []int{1, sc.Nodes / 2, sc.Nodes - 1} {
		if n >= 1 && n < sc.Nodes {
			n := n
			with(func(c *Scenario) {
				c.Nodes = n
				if len(c.NodeHCAs) > n {
					c.NodeHCAs = append([]int(nil), c.NodeHCAs[:n]...)
				}
			})
		}
	}
	for _, l := range []int{1, sc.PPN / 2, sc.PPN - 1} {
		if l >= 1 && l < sc.PPN {
			l := l
			with(func(c *Scenario) { c.PPN = l })
		}
	}
	for _, h := range []int{1, sc.HCAs / 2} {
		if h >= 1 && h < sc.HCAs {
			h := h
			with(func(c *Scenario) {
				c.HCAs = h
				if len(c.RailBW) > h {
					c.RailBW = append([]float64(nil), c.RailBW[:h]...)
				}
				if len(c.NodeHCAs) > 0 {
					clamped := append([]int(nil), c.NodeHCAs...)
					for i, v := range clamped {
						if v > h {
							clamped[i] = h
						}
					}
					c.NodeHCAs = clamped
				}
			})
		}
	}
	if sc.Layout != topology.Block {
		with(func(c *Scenario) { c.Layout = topology.Block })
	}
	for _, m := range []int{0, 1, sc.Msg / 2, sc.Msg - 1} {
		if m >= 0 && m < sc.Msg {
			m := m
			with(func(c *Scenario) { c.Msg = m })
		}
	}
	if sc.Seed != 1 {
		with(func(c *Scenario) { c.Seed = 1 })
	}
	return out
}
