package netmodel

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRailChunkWeightedSumsAndProportions(t *testing.T) {
	got := AppendRailChunkWeighted(nil, 30, []float64{1, 0.5})
	if got[0] != 20 || got[1] != 10 {
		t.Fatalf("AppendRailChunkWeighted(nil, 30, [1 .5]) = %v, want [20 10]", got)
	}
	got = AppendRailChunkWeighted(nil, 100, []float64{1, 0, 1})
	if !reflect.DeepEqual(got, []int{50, 0, 50}) {
		t.Fatalf("zero-weight rail got bytes: %v", got)
	}
}

func TestRailChunkWeightedEqualWeightsMatchRailChunk(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1 << 16, 1<<20 + 3} {
		for h := 1; h <= 8; h++ {
			w := make([]float64, h)
			for i := range w {
				w[i] = 1
			}
			if got, want := AppendRailChunkWeighted(nil, n, w), AppendRailChunk(nil, n, h); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d h=%d: weighted %v != equal %v", n, h, got, want)
			}
		}
	}
}

func TestRailChunkWeightedDeterministic(t *testing.T) {
	w := []float64{0.3, 0.3, 0.4}
	a := AppendRailChunkWeighted(nil, 1<<20+1, w)
	b := AppendRailChunkWeighted(nil, 1<<20+1, w)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different splits: %v vs %v", a, b)
	}
}

func TestQuickRailChunkWeightedConserves(t *testing.T) {
	f := func(n uint16, a, b, c uint8) bool {
		w := []float64{float64(a) + 1, float64(b), float64(c)}
		total := 0
		for _, p := range AppendRailChunkWeighted(nil, int(n), w) {
			if p < 0 {
				return false
			}
			total += p
		}
		return total == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRailChunkWeightedPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no rails":        func() { AppendRailChunkWeighted(nil, 10, nil) },
		"negative weight": func() { AppendRailChunkWeighted(nil, 10, []float64{1, -1}) },
		"zero total":      func() { AppendRailChunkWeighted(nil, 10, []float64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAppendRailChunkWeighted: the pieces go after what dst holds, the
// same pieces a nil dst gets, and into a buffer of eight nothing is
// allocated.
func TestAppendRailChunkWeighted(t *testing.T) {
	w := []float64{0.3, 0, 0.45, 0.25}
	got := AppendRailChunkWeighted([]int{-1}, 1<<20+7, w)
	if want := append([]int{-1}, AppendRailChunkWeighted(nil, 1<<20+7, w)...); !reflect.DeepEqual(got, want) {
		t.Fatalf("appended %v, want %v", got, want)
	}
	var buf [8]int
	if allocs := testing.AllocsPerRun(100, func() {
		AppendRailChunkWeighted(buf[:0], 1<<20+7, w)
	}); allocs != 0 {
		t.Fatalf("%.0f allocations into a buffer of eight, want 0", allocs)
	}
}
