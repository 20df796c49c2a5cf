package explore

import (
	"fmt"
	"sync"
	"testing"
)

// reportFingerprint renders everything observable about a report into one
// string, so two explorations can be compared byte for byte.
func reportFingerprint(rep *Report) string {
	out := fmt.Sprintf("execs=%d steps=%d est=%g complete=%v ces=%d\n",
		rep.Executions, rep.Steps, rep.SpaceEstimate, rep.Complete, rep.Counterexamples)
	for _, pr := range rep.Placements {
		out += fmt.Sprintf("%s %s execs=%d steps=%d decisions=%d maxf=%d est=%g adds=%d skips=%d precise=%d fallback=%d redundant=%d complete=%v\n",
			pr.Alg, pr.Fault, pr.Executions, pr.Steps, pr.Decisions, pr.MaxFrontier,
			pr.SpaceEstimate, pr.BacktrackAdds, pr.SleepSkips, pr.Precise, pr.Fallback, pr.RedundantExecs, pr.Complete)
		for _, ce := range pr.Counterexamples {
			out += fmt.Sprintf("  ce %s | %s | %v\n", ce.Spec, ce.Shrunk, ce.Violations)
		}
	}
	return out
}

// TestExplorationIsDeterministic runs the same exploration twice — once
// with a failing variant in the mix so counterexample discovery and
// shrinking are exercised too — and demands byte-identical reports:
// identical state counts, identical counterexample lists. Anything less
// means a repro spec printed by one run might not replay on the next.
func TestExplorationIsDeterministic(t *testing.T) {
	registerOrderBug()
	opt := Options{Algs: []string{"ring", "order-bug"}, Nodes: 1, PPN: 3, HCAs: 2,
		Msg: 2, FaultBudget: 1, MaxExecs: 2000, MaxCounterexamples: 2, ShrinkBudget: 20}
	a, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := reportFingerprint(a), reportFingerprint(b)
	if fa != fb {
		t.Errorf("two identical explorations diverged:\n--- first\n%s--- second\n%s", fa, fb)
	}
	if a.Counterexamples == 0 {
		t.Error("determinism fixture found no counterexamples; the comparison is vacuous")
	}
}

// TestConcurrentExplorationsAreIndependent stresses the placement
// parallelism inside Run and the independence of whole explorations:
// several concurrent Run calls must each produce the canonical report.
// Run under -race this doubles as the data-race check on the scheduler
// seam and the shared verify registry.
func TestConcurrentExplorationsAreIndependent(t *testing.T) {
	opt := Options{Algs: []string{"ring"}, Nodes: 2, PPN: 1, HCAs: 2, Msg: 2, FaultBudget: 1}
	want, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := reportFingerprint(want)
	const grp = 4
	got := make([]string, grp)
	errs := make([]error, grp)
	var wg sync.WaitGroup
	for i := 0; i < grp; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Run(opt)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = reportFingerprint(rep)
		}(i)
	}
	wg.Wait()
	for i := 0; i < grp; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if got[i] != wantFP {
			t.Errorf("concurrent run %d diverged from the canonical report:\n--- canonical\n%s--- run %d\n%s",
				i, wantFP, i, got[i])
		}
	}
}
