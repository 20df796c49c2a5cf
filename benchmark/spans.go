package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// A span is one timed call the harness made into a layer's public API.
// Spans are recorded by the benchmark around the call, never inside
// internal/: a span's interval therefore covers everything beneath that
// call (mpi.World.Run covers the sim engine and the collective it runs).
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 = root
	Op     int              `json:"op"`     // operation (point, scenario, request) the span belongs to
	Layer  string           `json:"layer"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op recorder, so workloads make the same calls traced or not;
// so is one with off set, which selects a workload's traceable variant
// (tuner-serve has a socket-free one) without recording, for measuring
// what recording costs.
type tracer struct {
	off   bool
	t0    time.Time
	spans []span
}

// harnessSpan names the operation spans themselves; their self time is
// what the benchmark's own loop costs between the calls it times.
const harnessSpan = "harness"

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when not recording). A span
// without a parent is an operation: its op is its own id.
func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil || t.off {
		return 0
	}
	id := len(t.spans) + 1
	if parent == 0 {
		op = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes span id, attaching the counts measured at that boundary.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil || t.off {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Counts = counts
}

// call records fn as a child span of parent.
func (t *tracer) call(parent, op int, layer, name string, fn func()) {
	id := t.begin(parent, op, layer, name)
	fn()
	t.end(id, nil)
}

// selfTimes returns the summed self time in nanoseconds per key (a
// span's name or its layer): each span's duration minus the part of it
// its direct children cover.
func selfTimes(spans []span, key func(span) string) map[string]int64 {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[key(s)] += s.End - s.Start - child[s.ID]
	}
	return out
}

// write stores the spans as a JSON array under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
