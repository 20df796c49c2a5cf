package sched

import "fmt"

// Range is a contiguous block range [First, First+Count).
type Range struct {
	First, Count int
}

// Goal generalizes the schedule contract beyond allgather. The block
// space has Blocks entries (for an allgather, one per rank; for an
// alltoall, one per (src, dst) pair). Init[r] lists the ranges rank r
// holds before step 0, and Want[r] the ranges it must hold — fully
// covered and carrying exactly the canonical contributor set — after the
// last step.
//
// Contribution identity is what makes reductions checkable: rank r's
// initial copy of block b carries the contributor set {r}, a plain move
// preserves the sender's set, and a reducing transfer (Transfer.Red)
// unions two disjoint sets. The canonical set of block b is every rank
// whose Init covers b, so "fully reduced" and "not double-folded" are
// both completeness checks, not runtime properties.
type Goal struct {
	Blocks int
	Init   [][]Range
	Want   [][]Range
}

// AllgatherGoal is the classic contract Analyze always enforced: block b
// is rank b's contribution, and every rank must end holding all of them.
func AllgatherGoal(n int) *Goal {
	g := &Goal{Blocks: n, Init: make([][]Range, n), Want: make([][]Range, n)}
	// One backing array per side; each rank's list is capped at its own
	// entry, so growing one never writes into another's.
	init, want := make([]Range, n), make([]Range, n)
	for r := 0; r < n; r++ {
		init[r], want[r] = Range{First: r, Count: 1}, Range{First: 0, Count: n}
		g.Init[r], g.Want[r] = init[r:r+1:r+1], want[r:r+1:r+1]
	}
	return g
}

// Validate checks the goal against a world of n ranks and the
// schedule's block space.
func (g *Goal) Validate(n, blocks int) error {
	if g.Blocks != blocks {
		return fmt.Errorf("sched: goal block space %d does not match schedule's %d", g.Blocks, blocks)
	}
	if g.Blocks < 1 || g.Blocks > maxBlocks {
		return fmt.Errorf("sched: goal block space %d outside [1,%d]", g.Blocks, maxBlocks)
	}
	if len(g.Init) != n || len(g.Want) != n {
		return fmt.Errorf("sched: goal shaped for %d ranks, world has %d", len(g.Init), n)
	}
	check := func(kind string, rs [][]Range) error {
		for r, list := range rs {
			for _, rng := range list {
				if rng.Count < 1 || rng.First < 0 || rng.First+rng.Count > g.Blocks {
					return fmt.Errorf("sched: goal %s rank %d: block range [%d,%d) out of [0,%d)",
						kind, r, rng.First, rng.First+rng.Count, g.Blocks)
				}
			}
		}
		return nil
	}
	if err := check("init", g.Init); err != nil {
		return err
	}
	if err := check("want", g.Want); err != nil {
		return err
	}
	// Every block some rank wants must have at least one contributor, or
	// completeness could never hold. gap[b] is the first block from b on
	// that nobody contributes (Blocks if none), so a wanted range is
	// checked in one look.
	gap := make([]int, g.Blocks+1)
	for _, list := range g.Init {
		for _, rng := range list {
			for b := rng.First; b < rng.First+rng.Count; b++ {
				gap[b] = -1
			}
		}
	}
	gap[g.Blocks] = g.Blocks
	for b := g.Blocks - 1; b >= 0; b-- {
		if gap[b] < 0 {
			gap[b] = gap[b+1]
		} else {
			gap[b] = b
		}
	}
	for r, list := range g.Want {
		for _, rng := range list {
			if b := gap[rng.First]; b < rng.First+rng.Count {
				return fmt.Errorf("sched: goal: rank %d wants block %d, which no rank contributes", r, b)
			}
		}
	}
	return nil
}
