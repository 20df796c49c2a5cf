package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
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

// TestTier1Metrics sanity-checks the perf-trajectory probes: every probe
// present, positive, and the JSON render stable across two calls.
func TestTier1Metrics(t *testing.T) {
	ms := Tier1(Quick)
	if len(ms) < 8 {
		t.Fatalf("only %d tier-1 probes", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if m.Micros <= 0 {
			t.Errorf("probe %s: non-positive latency %v", m.ID, m.Micros)
		}
		if seen[m.ID] {
			t.Errorf("duplicate probe id %s", m.ID)
		}
		seen[m.ID] = true
	}
	for _, id := range []string{"fig3-pt2pt-2hca-64k", "fig12a-allgather-MHA-8k",
		"fig15-allreduce-mha-1m", "explore-states-per-sec-4x2",
		"sim-events-per-sec-8x32x2", "lint-whole-program-us"} {
		if !seen[id] {
			t.Errorf("missing probe %s (have %v)", id, ms)
		}
	}
	var a, b bytes.Buffer
	if err := WriteTier1(&a, Quick); err != nil {
		t.Fatal(err)
	}
	if err := WriteTier1(&b, Quick); err != nil {
		t.Fatal(err)
	}
	// The tuner-* probes are wall-clock serving measurements and drift
	// run to run by design; every modeled probe must render identically.
	if got, want := maskWallClock(t, b.Bytes()), maskWallClock(t, a.Bytes()); got != want {
		t.Fatalf("WriteTier1 modeled probes not deterministic:\n%s\nvs\n%s", want, got)
	}
}

// maskWallClock zeroes the wall-clock (tuner-*, explore-*, lint-*, sim-*,
// compose-lower-us, fabric-route-us) probe values in a rendered tier-1 file so
// determinism checks compare only modeled time.
func maskWallClock(t *testing.T, data []byte) string {
	t.Helper()
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("tier-1 render does not parse: %v", err)
	}
	for k := range m {
		if strings.HasPrefix(k, "tuner-") || strings.HasPrefix(k, "explore-") ||
			strings.HasPrefix(k, "lint-") || strings.HasPrefix(k, "sim-") ||
			k == "compose-lower-us" || k == "fabric-route-us" {
			m[k] = 0
		}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v\n", k, m[k])
	}
	return b.String()
}
