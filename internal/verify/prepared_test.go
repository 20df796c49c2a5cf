package verify

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mha/internal/trace"
)

// TestPreparedRunsMatchFreshRuns: every run of one Prepared is a run of a
// fresh scenario. Over a slice of the campaign's scenario stream, the
// schedule-interpreter and compose rows and a few hand-written ones,
// healthy and faulted, each of several runs of one Prepared gives the
// RunResult and the event sequence of as many RunOnce calls: nothing a
// run leaves in the shared lowering, the image or the ranks' arrays
// reaches the next.
func TestPreparedRunsMatchFreshRuns(t *testing.T) {
	const runs, scenarios = 3, 24
	var algs []Algorithm
	for _, a := range Algorithms() {
		if strings.HasPrefix(a.Name, "sched-") || strings.HasPrefix(a.Name, "compose-") ||
			a.Name == "ring" || a.Name == "mha" {
			algs = append(algs, a)
		}
	}
	rng := rand.New(rand.NewSource(49))
	var healthy, faulted int
	seen := map[string]bool{}
	for i := 0; i < scenarios; i++ {
		sc := Generate(rng, algs, 16)
		if sc.Faults.Len() > 0 {
			faulted++
		} else {
			healthy++
		}
		seen[sc.Alg] = true
		prep := Prepare(sc)
		for r := 0; r < runs; r++ {
			recP, recF := trace.New(), trace.New()
			got, want := prep.Run(recP, nil), RunOnce(sc, recF, nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: run %d of one Prepared gave %+v, a fresh run %+v", sc.Spec(), r, got, want)
			}
			if at, e1, e2 := recP.Diff(recF); at >= 0 {
				t.Errorf("%s: run %d of one Prepared differs from a fresh run at event %d: %s vs %s",
					sc.Spec(), r, at, eventText(e1), eventText(e2))
			}
		}
		prep.Release()
	}
	if healthy == 0 || faulted == 0 || !seen["sched-mha"] {
		t.Errorf("slice covers %d healthy and %d faulted scenarios of %d variants (sched-mha: %v); want both kinds and sched-mha",
			healthy, faulted, len(seen), seen["sched-mha"])
	}
	t.Logf("%d healthy and %d faulted scenarios over %d variants", healthy, faulted, len(seen))
}
