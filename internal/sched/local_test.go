package sched

import (
	"fmt"
	"slices"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

// oldNeighbor builds q's schedule the way mutate did before it asked
// local questions: clone the parent, edit the clone. It shares nothing
// with neighbor.changed, so it checks that too.
func oldNeighbor(parent *Schedule, q neighbor) *Schedule {
	s := parent.Clone()
	i := q.si
	s.Steps[i].Xfers = append(s.Steps[i].Xfers, s.Steps[i+1].Xfers...)
	s.Steps[i].Copies = append(s.Steps[i].Copies, s.Steps[i+1].Copies...)
	s.Steps = append(s.Steps[:i+1], s.Steps[i+2:]...)
	return s
}

func sameSteps(a, b *Schedule) bool {
	return slices.EqualFunc(a.Steps, b.Steps, func(x, y Step) bool {
		return slices.Equal(x.Xfers, y.Xfers) && slices.Equal(x.Copies, y.Copies)
	})
}

// verdictTally counts how the local verdicts fell, plus the case the
// sweep must not miss.
type verdictTally struct {
	rejected, priced     int
	pricedFusionOfCopies int // a fusion whose second step stages copies
}

// checkLocalVerdicts puts every neighbor of parent the search would ask
// about to one walk and to the full analyzer, and requires:
// locally rejected => the analyzer errors; locally priced => it accepts
// at exactly parent - old + price. build must give the same schedule as
// the old construction.
func checkLocalVerdicts(t *testing.T, parent *Schedule, prm *netmodel.Params, health []float64, tally *verdictTally) {
	t.Helper()
	rep, err := AnalyzeHealth(parent, prm, health)
	if err != nil {
		t.Fatalf("%s on %v: parent invalid: %v", parent.Name, parent.Topo, err)
	}
	c := Candidate{Name: parent.Name, Sched: parent, Cost: rep.Cost}
	qs := neighbors(parent)
	sr := &search{prm: prm, health: health}
	if err := sr.walk(parent, qs); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		where := func() string {
			return fmt.Sprintf("%s on %v msg=%d health=%v: f%d", parent.Name, parent.Topo, parent.Msg, health, q.si)
		}
		old := oldNeighbor(parent, q)
		if built := q.build(c); !sameSteps(built, old) {
			t.Fatalf("%s: build differs from the old construction:\n%s\nvs\n%s", where(), built, old)
		}
		full, err := AnalyzeHealth(old, prm, health)
		switch {
		case !q.ok && err == nil:
			t.Errorf("%s: rejected locally, but the analyzer accepts it at %d", where(), int64(full.Cost))
		case !q.ok:
			tally.rejected++
		case err != nil:
			t.Errorf("%s: priced locally at %d, but the analyzer rejects it: %v", where(), int64(c.Cost-q.old+q.price), err)
		case full.Cost != c.Cost-q.old+q.price:
			t.Errorf("%s: priced locally at %d - %d + %d = %d, the analyzer says %d", where(),
				int64(c.Cost), int64(q.old), int64(q.price), int64(c.Cost-q.old+q.price), int64(full.Cost))
		default:
			tally.priced++
			if len(parent.Steps[q.si+1].Copies) > 0 {
				tally.pricedFusionOfCopies++
			}
		}
	}
	// A walk that went to the end has priced the parent itself on the way.
	if len(qs) > 0 && sr.a.rep.Cost != rep.Cost {
		t.Errorf("%s on %v: the walk priced the parent at %d, the analyzer at %d", parent.Name, parent.Topo, int64(sr.a.rep.Cost), int64(rep.Cost))
	}
}

// looseParent is a hand-built valid allgather on 2x2x2 with room in
// it, for the verdicts no lowering produces on a block layout: each
// cross-node block travels as two half-window pieces on rail 0, one
// piece a step, so adjacent steps fuse; intra-node blocks go round-robin
// over the adapters, so a fused step's price depends on where the
// cursors stand, in steps that also stage a copy of a block held from
// the start.
func looseParent(msg int) *Schedule {
	topo := topology.New(2, 2, 2)
	b := NewBuilder("loose", topo, msg)
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			switch {
			case src == dst:
			case topo.NodeOf(src) == topo.NodeOf(dst):
				b.Step().SendHCA(src, dst, src, 1).Copy(src, src, 1)
			default:
				b.Step().RailPiece(src, dst, src, 1, 0, msg/2, 0)
				b.Step().RailPiece(src, dst, src, 1, msg/2, msg-msg/2, 0)
			}
		}
	}
	return b.MustBuild()
}

// TestLocalVerdictsMatchFullAnalysis is the proof that mutate's shortcut
// is sound and exact: for every seed of Synthesize on every block-layout
// machine of at most 16 ranks, at two sizes, healthy, with rail 1 at half
// rate and with a rail down, every fusion the search would ask about gets
// the same verdict from one walk of its parent as from a full analysis of
// the neighbor built the old way, and the same cost to the nanosecond.
// TestLocalVerdictsMatchFullAnalysisTo32 (build tag sweep, a CI step of
// its own) carries the proof on to 32 ranks.
func TestLocalVerdictsMatchFullAnalysis(t *testing.T) {
	prm := netmodel.Thor()
	tally, parents := checkLocalVerdictSweep(t, prm, 1, 16)
	for _, health := range [][]float64{nil, {1, 0.5}, {0.25, 1}} {
		for _, msg := range []int{4 << 10, 1 << 20} {
			checkLocalVerdicts(t, looseParent(msg), prm, health, tally)
			parents++
		}
	}
	t.Logf("%d parents; %d fusions rejected locally, %d priced (%d of a step with copies)",
		parents, tally.rejected, tally.priced, tally.pricedFusionOfCopies)
	if tally.pricedFusionOfCopies == 0 {
		t.Error("no priced fusion of a step with copies")
	}
}

// checkLocalVerdictSweep checks the local verdicts of every distinct seed
// on every block-layout machine of lo to hi ranks, at 4 KiB and 1 MiB,
// under the health vectors each rail count has (three rails only to 16
// ranks), and returns the tally and the number of parents walked.
func checkLocalVerdictSweep(t *testing.T, prm *netmodel.Params, lo, hi int) (*verdictTally, int) {
	tally := &verdictTally{}
	parents := 0
	for nodes := 1; nodes <= hi; nodes++ {
		for ppn := 1; nodes*ppn <= hi; ppn++ {
			if nodes*ppn < lo {
				continue
			}
			for hcas := 1; hcas <= 3; hcas++ {
				healths := [][]float64{nil}
				switch hcas {
				case 2:
					healths = append(healths, []float64{1, 0.5})
				case 3:
					// Three rails only for the down-rail case: one dead, so the
					// round-robin skips it.
					healths = [][]float64{{0.5, 0, 1}}
					if nodes*ppn > 16 {
						continue
					}
				}
				topo := topology.Cluster{Nodes: nodes, PPN: ppn, HCAs: hcas, Layout: topology.Block}
				for _, msg := range []int{4 << 10, 1 << 20} {
					for _, health := range healths {
						// Many seeds are one schedule under several names (the
						// option grid collapses on small machines): once each.
						var seen []*Schedule
						for _, c := range (&search{prm: prm, health: health}).seeds(topo, msg) {
							if slices.ContainsFunc(seen, func(s *Schedule) bool { return sameSteps(s, c.Sched) }) {
								continue
							}
							seen = append(seen, c.Sched)
							checkLocalVerdicts(t, c.Sched, prm, health, tally)
							parents++
						}
					}
				}
			}
		}
	}
	if tally.rejected == 0 || tally.priced == 0 {
		t.Errorf("%d to %d ranks: %d fusions rejected, %d priced — the sweep must see both",
			lo, hi, tally.rejected, tally.priced)
	}
	return tally, parents
}
