package main

import (
	"fmt"
	"math"
	"reflect"
)

// runSelfcheck measures every selected workload twice, back to back with
// the same binary, and holds the two sets to the benchmark's own bounds:
// a host metric may differ by at most its bound, and every exact number
// (operation counts, failures, the counts beside the metrics) not at all.
func runSelfcheck(ws []workload, cfg config, initSecs float64) error {
	bad := 0
	for _, w := range ws {
		a, err := runWorkload(w, cfg, initSecs)
		if err != nil {
			return err
		}
		b, err := runWorkload(w, cfg, initSecs)
		if err != nil {
			return err
		}
		fmt.Printf("\n== %s\n  %-12s %14s %14s %8s %7s  %s\n", w.name(), "metric", "first", "second", "diff", "bound", "verdict")
		for _, d := range endToEnd {
			x, y := a.metrics[d.Name], b.metrics[d.Name]
			diff := math.Abs(y-x) / math.Min(x, y)
			verdict := "ok"
			if diff > d.Bound {
				verdict = "unresolved"
				bad++
			}
			fmt.Printf("  %-12s %14.6g %14.6g %7.1f%% %6.0f%%  %s\n", d.Name, x, y, diff*100, d.Bound*100, verdict)
		}
		// The two sets may have made different numbers of passes.
		na, nb := len(a.passSecs), len(b.passSecs)
		exact := a.attempted*nb == b.attempted*na && a.failed*nb == b.failed*na &&
			a.correct == b.correct && reflect.DeepEqual(a.counts, b.counts)
		fmt.Printf("  exact numbers (operations and failures per pass, counts): identical=%v\n", exact)
		if !exact {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d rows outside the bounds", bad)
	}
	return nil
}
