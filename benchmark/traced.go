package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
)

// runTraced is a traced run of one workload: one pass of the workload's
// traceable variant without recording and one with spans recorded around
// each public call. m already holds the layer probes' values; the
// workload's own rows are added to it (every one is overwritten on each
// call). It prints every per-layer metric; end-to-end metrics always
// come from untraced runs.
func runTraced(w workload, cfg config, m map[string]float64) error {

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, plainSecs, plain, err := timedPass(w, cfg, &tracer{off: true})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m["host.alloc_mb_per_pass"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	m["host.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	tr := newTracer()
	_, tracedSecs, traced, err := timedPass(w, cfg, tr)
	if err != nil {
		return err
	}
	m["trace_overhead_pct"] = (tracedSecs - plainSecs) / plainSecs * 100
	m["trace.spans"] = float64(len(tr.spans))

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	m["host.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB

	byName := selfTimes(tr.spans, func(s span) string { return s.Name })
	total := int64(0)
	for _, ns := range byName {
		total += ns
	}
	for _, d := range perLayer {
		if call, ok := strings.CutPrefix(d.Name, "self_pct."); ok {
			m[d.Name] = 100 * float64(byName[call]) / float64(total)
		}
	}
	path, err := tr.write(outDir, w.name())
	if err != nil {
		return err
	}

	fmt.Printf("\n== %s, traced: %d spans in %s\n", w.name(), len(tr.spans), path)
	fmt.Printf("  pass untraced %.4g s, traced %.4g s\n", plainSecs, tracedSecs)
	byLayer := selfTimes(tr.spans, func(s span) string { return s.Layer })
	for _, layer := range sortedKeys(byLayer) {
		fmt.Printf("  layer %-8s self time %9.3f ms  %5.1f%% of the pass\n",
			layer, float64(byLayer[layer])/1e6, 100*float64(byLayer[layer])/float64(total))
	}
	for _, d := range perLayer {
		fmt.Printf("  %-36s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	failures := append(append(plain.failures, traced.failures...), w.finish()...)
	printFailures(failures)
	correct := len(failures) == 0 && plain.signature == traced.signature
	return printResult(correct, plain.attempted+traced.attempted, len(failures), perLayer, m)
}
