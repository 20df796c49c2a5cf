package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the experiment golden files")

// TestRegistryGoldenOutput pins the full table output of every registered
// experiment at Quick scale. The simulator is deterministic, so any diff
// is a real behavior change: re-record deliberately with
//
//	go test ./internal/bench/ -run TestRegistryGoldenOutput -update
func TestRegistryGoldenOutput(t *testing.T) {
	for _, ex := range Registry() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ex.Run(&buf, Quick); err != nil {
				t.Fatalf("experiment %s: %v", ex.ID, err)
			}
			path := filepath.Join("testdata", "golden", ex.ID+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden for %s (record with -update): %v", ex.ID, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("experiment %s output drifted from golden:\n%s", ex.ID, firstDiff(want, buf.Bytes()))
			}
		})
	}
}

// firstDiff renders the first differing line of got vs want.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: golden %d vs got %d", len(wl), len(gl))
}

// TestTier1Metrics pins the perf-trajectory probes to the checked-in
// BENCH_tier1.json: every one is virtual time at Quick scale, so the
// render must match byte for byte. A modeled number that moves on purpose
// is re-recorded with
//
//	go run ./cmd/mha bench -quick -tier1 BENCH_tier1.json
func TestTier1Metrics(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Tier1(Quick) {
		if m.Micros <= 0 {
			t.Errorf("probe %s: non-positive latency %v", m.ID, m.Micros)
		}
		if seen[m.ID] {
			t.Errorf("duplicate probe id %s", m.ID)
		}
		seen[m.ID] = true
	}
	var got bytes.Buffer
	if err := WriteTier1(&got, Quick); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_tier1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tier-1 probes drifted from BENCH_tier1.json:\n%s", firstDiff(want, got.Bytes()))
	}
}
