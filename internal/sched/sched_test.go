package sched

import (
	"slices"
	"strings"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

// small builds a feature-complete schedule on 2x2x2: an intra-node CMA
// send, an offload-loopback send, pinned rail pieces, a pull, and a
// staging copy — every IR feature the serializers must round-trip.
func small(t *testing.T) *Schedule {
	t.Helper()
	topo := topology.New(2, 2, 2)
	b := NewBuilder("feature", topo, 100)
	// Step 0: direct spread inside each node (CMA one way, loopback HCA
	// the other) and each rank 0/1 block to the other node's ranks.
	b.Step()
	b.Send(0, 1, 0).SendHCA(1, 0, 1, 1)
	b.Send(2, 3, 2).SendHCA(3, 2, 3, 1)
	// Step 1: node blocks cross the wire as pinned rail pieces.
	b.Step()
	b.RailPiece(0, 2, 0, 2, 0, 100, 0).RailPiece(0, 2, 0, 2, 100, 100, 1)
	b.RailPiece(2, 0, 2, 2, 0, 100, 0).RailPiece(2, 0, 2, 2, 100, 100, 1)
	// Step 2: leaders stage and peers pull the remote node block.
	b.Step()
	b.Copy(0, 2, 2).Pull(0, 1, 2, 2)
	b.Copy(2, 0, 2).Pull(2, 3, 0, 2)
	s, err := b.Build()
	if err != nil {
		t.Fatalf("feature schedule does not build: %v", err)
	}
	return s
}

func TestTextRoundTrip(t *testing.T) {
	s := small(t)
	text := s.String()
	s2, err := Parse(text)
	if err != nil {
		t.Fatalf("String output does not parse: %v\n%s", err, text)
	}
	if s2.String() != text {
		t.Fatalf("String/Parse not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, s2.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := small(t)
	js, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON render: %v", err)
	}
	s2, err := Parse(string(js))
	if err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, js)
	}
	if s2.String() != s.String() {
		t.Fatalf("JSON round trip changed the schedule:\nwant:\n%s\ngot:\n%s", s, s2)
	}
	// A header line, then one line per step.
	if lines := strings.Count(string(js), "\n") + 1; lines != 1+len(s.Steps) {
		t.Fatalf("JSON has %d lines for %d steps:\n%s", lines, len(s.Steps), js)
	}
}

// TestViaOrdinals pins the transport numbering: the JSON form carries a
// transfer's Via as its ordinal, so renumbering would make every stored
// or served schedule mean something else.
func TestViaOrdinals(t *testing.T) {
	for want, v := range []Via{ViaAuto, ViaPull, ViaHCA, ViaRail} {
		if int(v) != want {
			t.Errorf("%s has ordinal %d, want %d", v, int(v), want)
		}
	}
	s := small(t)
	js, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Step 0 sends 1->0 through the HCAs, step 1 pins rail 1, step 2 pulls.
	for _, tuple := range []string{"[1,0,1,1,0,100,2,0,0]", "[0,2,0,2,100,100,3,1,0]", "[0,1,2,2,0,200,1,0,0]", "[0,1,0,1]"} {
		if !strings.Contains(string(js), tuple) {
			t.Errorf("JSON lacks the tuple %s:\n%s", tuple, js)
		}
	}
}

// tupleJSON is a 1x2x1, msg=4 schedule in the JSON form with the given
// steps.
func tupleJSON(step string) string {
	return `{"name":"j","nodes":1,"ppn":2,"hcas":1,"layout":"block","msg":4,"steps":[` + step + `]}`
}

func TestParseRejects(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"empty", "", "empty input"},
		{"no header", "step\n", "before schedule header"},
		{"bad directive", "schedule x nodes=1 ppn=2 msg=4\nwat\n", "unknown directive"},
		{"bad key", "schedule x nodes=1 ppn=2 msg=4 zig=3\n", "unknown key"},
		{"bad number", "schedule x nodes=1 ppn=2 msg=banana\n", "bad msg value"},
		{"xfer outside step", "schedule x nodes=1 ppn=2 msg=4\nxfer src=0 dst=1 first=0 count=1\n", "outside a step"},
		{"self transfer", "schedule x nodes=1 ppn=2 msg=4\nstep\nxfer src=0 dst=0 first=0 count=1\n", "self transfer"},
		{"rank range", "schedule x nodes=1 ppn=2 msg=4\nstep\nxfer src=0 dst=7 first=0 count=1\n", "out of range"},
		{"window", "schedule x nodes=1 ppn=2 msg=4\nstep\nxfer src=0 dst=1 first=0 count=1 off=2 len=9\n", "byte window"},
		{"lone off", "schedule x nodes=1 ppn=2 msg=4\nstep\nxfer src=0 dst=1 first=0 count=1 off=2\n", "off and len"},
		{"bad via", "schedule x nodes=1 ppn=2 msg=4\nstep\nxfer src=0 dst=1 first=0 count=1 via=pigeon\n", "unknown transport"},
		{"rail range", "schedule x nodes=2 ppn=1 hcas=2 msg=4\nstep\nxfer src=0 dst=1 first=0 count=1 via=rail rail=5\n", "rail 5 out of range"},
		{"rail on auto", "schedule x nodes=2 ppn=1 hcas=2 msg=4\nstep\nxfer src=0 dst=1 first=0 count=1 rail=1\n", "rail 1 set on"},
		{"cross-node pull", "schedule x nodes=2 ppn=1 hcas=2 msg=4\nstep\nxfer src=0 dst=1 first=0 count=1 via=pull\n", "different nodes"},
		{"huge topo", "schedule x nodes=99999999 ppn=99999999 msg=4\n", "rank limit"},
		{"bad json", "{", "bad JSON"},
		{"json layout", `{"name":"x","nodes":1,"ppn":2,"hcas":1,"layout":"diagonal","msg":4,"steps":[]}`, "unknown layout"},
		{"json arity 3", tupleJSON(`{"xfers":[[0,1,0]]}`), "step 0 xfer 0: arity 3, want one of [4 9]"},
		{"json arity 5", tupleJSON(`{"xfers":[[0,1,0,1],[0,1,0,1,0]]}`), "step 0 xfer 1: arity 5"},
		{"json copy arity", tupleJSON(`{"copies":[[0,0]]}`), "step 0 copy 0: arity 2, want one of [3]"},
		{"json float", tupleJSON(`{"xfers":[[0,1,0,1.5]]}`), "element 3: 1.5 is not an integer"},
		{"json exponent", tupleJSON(`{"xfers":[[0,1,0,1e0]]}`), "element 3: 1e0 is not an integer"},
		{"json string", tupleJSON(`{"xfers":[[0,"1",0,1]]}`), `element 1: "1" is not an integer`},
		{"json null", tupleJSON(`{"xfers":[[null,1,0,1]]}`), "element 0: null is not an integer"},
		{"json red 2", tupleJSON(`{"xfers":[[0,1,0,1,0,4,0,0,2]]}`), "red 2, want 0 or 1"},
		{"json red negative", tupleJSON(`{"xfers":[[0,1,0,1,0,4,0,0,-1]]}`), "red -1, want 0 or 1"},
		{"json via 9", tupleJSON(`{"xfers":[[0,1,0,1,0,4,9,0,0]]}`), "unknown transport 9"},
		{"json via negative", tupleJSON(`{"xfers":[[0,1,0,1,0,4,-1,0,0]]}`), "unknown transport -1"},
		{"json negative rank", tupleJSON(`{"xfers":[[-1,1,0,1]]}`), "rank out of range in -1->1"},
		{"json negative count", tupleJSON(`{"xfers":[[0,1,0,-1]]}`), "block range [0,-1)"},
		{"json negative window", tupleJSON(`{"xfers":[[0,1,0,1,-2,4,0,0,0]]}`), "byte window [-2,2)"},
		{"json object transfer", tupleJSON(`{"xfers":[{"src":0,"dst":1,"first":0,"count":1}]}`), "bad JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.in)
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestAnalyzeAcceptsLowerings(t *testing.T) {
	prm := netmodel.Thor()
	topos := []topology.Cluster{
		topology.New(1, 1, 1),
		topology.New(2, 2, 2),
		topology.New(4, 3, 1),
		{Nodes: 1, PPN: 4, HCAs: 2, Layout: topology.Block},
		{Nodes: 3, PPN: 2, HCAs: 2, Layout: topology.Cyclic},
	}
	for _, topo := range topos {
		for _, msg := range []int{0, 13, 65536} {
			builds := map[string]*Schedule{
				"ring": Ring(topo, msg),
				"rd":   RecursiveDoubling(topo, msg),
			}
			if topo.Layout == topology.Block || topo.Nodes == 1 {
				builds["mha"] = TwoPhaseMHA(topo, prm, msg, MHAOptions{Offload: AutoOffload})
				builds["mha-seq"] = TwoPhaseMHA(topo, prm, msg, MHAOptions{Sequential: true, Push: true})
			}
			if dr := DirectRail(topo, msg); dr != nil {
				builds["direct-rail"] = dr
			}
			for name, s := range builds {
				rep, err := Analyze(s, prm)
				if err != nil {
					t.Errorf("%s on %v msg=%d: %v", name, topo, msg, err)
					continue
				}
				if rep.Cost <= 0 {
					t.Errorf("%s on %v msg=%d: non-positive cost %v", name, topo, msg, rep.Cost)
				}
				if topo.Nodes > 1 && msg > 0 && rep.WireBytes == 0 {
					t.Errorf("%s on %v msg=%d: no wire traffic", name, topo, msg)
				}
			}
		}
	}
}

// TestAnalyzeRejectsBroken hand-breaks schedules in the three ways the
// analyzer must catch: a block never delivered, a forward of data not
// yet held, and two pinned transfers fighting over one rail endpoint.
func TestAnalyzeRejectsBroken(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(2, 2, 2)

	t.Run("missing block", func(t *testing.T) {
		s := Ring(topo, 64)
		s.Steps = s.Steps[:len(s.Steps)-1] // drop the final forwarding round
		_, err := Analyze(s, prm)
		if err == nil || !strings.Contains(err.Error(), "missing block") {
			t.Fatalf("truncated ring not rejected: %v", err)
		}
	})

	t.Run("send before hold", func(t *testing.T) {
		s := Ring(topo, 64)
		// Rank 0 forwards block 3 in the very first step; it only
		// receives block 3 at the end of that step.
		s.Steps[0].Xfers = append(s.Steps[0].Xfers,
			Transfer{Src: 0, Dst: 1, First: 3, Count: 1, Len: 64})
		_, err := Analyze(s, prm)
		if err == nil || !strings.Contains(err.Error(), "before holding it") {
			t.Fatalf("premature forward not rejected: %v", err)
		}
	})

	t.Run("stage before hold", func(t *testing.T) {
		s := Ring(topo, 64)
		s.Steps[0].Copies = append(s.Steps[0].Copies, Copy{Rank: 0, First: 2, Count: 1})
		_, err := Analyze(s, prm)
		if err == nil || !strings.Contains(err.Error(), "stages block") {
			t.Fatalf("premature staging copy not rejected: %v", err)
		}
	})

	t.Run("rail conflict tx", func(t *testing.T) {
		b := NewBuilder("conflict", topo, 64)
		b.Step()
		// Ranks 0 and 1 share node 0: both pin rail 1 for transmit.
		b.RailPiece(0, 2, 0, 1, 0, 64, 1)
		b.RailPiece(1, 3, 1, 1, 0, 64, 1)
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Analyze(s, prm)
		if err == nil || !strings.Contains(err.Error(), "rail conflict") {
			t.Fatalf("tx rail conflict not rejected: %v", err)
		}
	})

	t.Run("rail conflict rx", func(t *testing.T) {
		// Three single-rank nodes: transfers from nodes 0 and 1 converge
		// on node 2's rail 0 receive engine.
		b := NewBuilder("conflict", topology.New(3, 1, 2), 64)
		b.Step()
		b.RailPiece(0, 2, 0, 1, 0, 64, 0)
		b.RailPiece(1, 2, 1, 1, 0, 64, 0)
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Analyze(s, prm)
		if err == nil || !strings.Contains(err.Error(), "rail conflict") {
			t.Fatalf("rx rail conflict not rejected: %v", err)
		}
	})
}

// TestAnalyzeAllocFence keeps the analyzer's per-step state in slices
// sized once per call: pricing the 128-rank two-phase plan costs 22
// allocations (the goal, the pointer-free hold matrix, the per-step
// tables and Validate's rank-to-node table), where a hold matrix of
// interval lists and contributor-set slices took 536 and per-step maps
// and per-transfer window slices 15517. The bound is that figure times
// 1.5.
func TestAnalyzeAllocFence(t *testing.T) {
	prm := netmodel.Thor()
	s := TwoPhaseMHA(topology.New(8, 16, 2), prm, 64<<10, MHAOptions{Offload: AutoOffload})
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := AnalyzeHealth(s, prm, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 33 {
		t.Errorf("AnalyzeHealth on %s 8x16x2/64KiB: %.0f allocations, fence is 33", s.Name, allocs)
	}
}

// TestSynthesizeAllocFence bounds one cold tuner miss on 4x8x2 at 64 KiB:
// 1 142 allocations, with 15 of the 21 seeds abandoned before they are
// priced to the end (DirectRail not built, the d7 plans not assembled),
// none of the five finalists simulated, one priced exactly at its cost
// and four ruled out by the bound (1 940 when every seed was priced to
// the end; 2 255 while one finalist was still simulated; 7 017 when every
// rank of a simulation allocated each request it posted, the healthy
// bounded finalist was simulated too and every MHA seed was built and
// analyzed whole; 11 521 before the hold matrix dropped its per-entry
// sets and the builder presized its steps, 15 399 when all five
// finalists were simulated, 41 416 when every neighbor was also cloned
// and analyzed on tables of its own). The bound is that figure plus
// 15 %: a search that goes back to building every seed, to simulating a
// finalist, to analyzing its 59 fusions in full, or to fresh tables per
// analysis or per walk, crosses it.
func TestSynthesizeAllocFence(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(4, 8, 2)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Synthesize(topo, prm, 64<<10, SynthOptions{PruneMargin: 0.25}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1313 {
		t.Errorf("Synthesize on 4x8x2/64KiB: %.0f allocations, fence is 1313", allocs)
	} else {
		t.Logf("Synthesize on 4x8x2/64KiB: %.0f allocations", allocs)
	}
}

// TestAnalyzeBoundsRailEndpoints: the per-step rail tables are sized by
// nodes x rails, and a parsed header may claim any rail count.
func TestAnalyzeBoundsRailEndpoints(t *testing.T) {
	s, err := Parse("schedule wide nodes=2 ppn=1 hcas=40000 msg=8\nstep\nxfer src=0 dst=1 first=0 count=1\nxfer src=1 dst=0 first=1 count=1\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(s, nil)
	const want = "sched: analyzer supports up to 65536 rail endpoints, schedule has 2 nodes x 40000 rails"
	if err == nil || err.Error() != want {
		t.Fatalf("Analyze = %v, want %q", err, want)
	}
	s.Topo.HCAs = 32768 // exactly at the bound
	if _, err := Analyze(s, nil); err != nil {
		t.Fatalf("Analyze at the bound: %v", err)
	}
}

// TestPartialWindows checks the byte-interval bookkeeping: a block
// forwarded as two half-windows in one step counts as held afterwards,
// but a half-delivered block does not satisfy completeness.
func TestPartialWindows(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(2, 1, 2)
	b := NewBuilder("halves", topo, 100)
	b.Step()
	b.RailPiece(0, 1, 0, 1, 0, 50, 0).RailPiece(0, 1, 0, 1, 50, 50, 1)
	b.RailPiece(1, 0, 1, 1, 0, 50, 0).RailPiece(1, 0, 1, 1, 50, 50, 1)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(s, prm); err != nil {
		t.Fatalf("split delivery rejected: %v", err)
	}

	// Remove one half: rank 1 now ends with half of block 0.
	s.Steps[0].Xfers = s.Steps[0].Xfers[1:]
	if _, err := Analyze(s, prm); err == nil || !strings.Contains(err.Error(), "missing block") {
		t.Fatalf("half-delivered block not rejected: %v", err)
	}
}

func TestRingFallbackForNonPow2(t *testing.T) {
	topo := topology.New(1, 6, 1)
	if s := RecursiveDoubling(topo, 8); s.Name != "ring" {
		t.Fatalf("non-power-of-two RD lowered to %q, want ring fallback", s.Name)
	}
	if s := RecursiveDoubling(topology.New(1, 8, 1), 8); s.Name != "rd" {
		t.Fatalf("power-of-two RD lowered to %q", s.Name)
	}
}

// TestCoverArrivalOrders: a block's pieces may land in any order. The
// in-place filter cover.add used to run wrote one slot ahead of its read
// cursor when the new interval sorted before an existing one, so
// [10,20] [30,40] + [0,5] lost [30,40] and the block never became full.
func TestCoverArrivalOrders(t *testing.T) {
	const size = 60
	for _, tc := range []struct {
		name string
		adds [][2]int
		want [][2]int // nil: full
	}{
		{"ascending", [][2]int{{0, 20}, {20, 40}, {40, 60}}, nil},
		{"descending", [][2]int{{40, 60}, {20, 40}, {0, 20}}, nil},
		{"interleaved", [][2]int{{20, 30}, {0, 10}, {40, 50}, {10, 20}, {30, 40}, {50, 60}}, nil},
		{"before two", [][2]int{{10, 20}, {30, 40}, {0, 5}}, [][2]int{{0, 5}, {10, 20}, {30, 40}}},
		{"between", [][2]int{{0, 5}, {30, 40}, {10, 20}}, [][2]int{{0, 5}, {10, 20}, {30, 40}}},
		{"touching", [][2]int{{30, 40}, {10, 20}, {20, 30}}, [][2]int{{10, 40}}},
		{"overlapping", [][2]int{{30, 45}, {5, 15}, {10, 35}}, [][2]int{{5, 45}}},
		{"swallowing", [][2]int{{50, 55}, {30, 40}, {10, 20}, {5, 45}}, [][2]int{{5, 45}, {50, 55}}},
		{"three-way stripe, ends first", [][2]int{{40, 60}, {0, 20}, {20, 40}}, nil},
		{"three-way stripe, one missing", [][2]int{{40, 60}, {0, 20}}, [][2]int{{0, 20}, {40, 60}}},
	} {
		var c cover
		for _, iv := range tc.adds {
			c.add(iv[0], iv[1], size)
		}
		if tc.want == nil {
			if !c.full() {
				t.Errorf("%s: not full after %v: %v", tc.name, tc.adds, c.ivs)
			}
			continue
		}
		if c.full() || !slices.Equal(c.ivs, tc.want) {
			t.Errorf("%s: after %v: full=%v ivs=%v, want %v", tc.name, tc.adds, c.full(), c.ivs, tc.want)
		}
	}
}

// TestAnalyzePieceOrders: the rail pieces of a block may be listed (and
// so delivered) in any order. High-to-low pieces touch as they land and
// always merged; an order that leaves two separate intervals and then
// delivers one before both (here 2, 4, 0, 1, 3 of five) is the one the
// analyzer used to fail with "rank ends missing block".
func TestAnalyzePieceOrders(t *testing.T) {
	for _, order := range [][]int{{2, 1, 0}, {2, 4, 0, 1, 3}} {
		rails := len(order)
		b := NewBuilder("pieces", topology.New(2, 1, rails), 30*rails)
		b.Step()
		for src := 0; src < 2; src++ {
			for _, rail := range order {
				b.RailPiece(src, 1-src, src, 1, 30*rail, 30, rail)
			}
		}
		if _, err := Analyze(b.MustBuild(), netmodel.Thor()); err != nil {
			t.Errorf("pieces listed in order %v rejected: %v", order, err)
		}
	}
}

// TestFoldsAcrossSetWords: on 128 ranks a contributor set spans two
// words. The recursive-doubling allreduce folds every block into a set
// of all 128 ranks; repeating a step folds some ranks in twice, and
// stopping a step short leaves every block with half of them.
func TestFoldsAcrossSetWords(t *testing.T) {
	prm := netmodel.Thor()
	s, g := rdAllreduce(topology.New(8, 16, 2), 512)
	rep, err := AnalyzeGoalHealth(s, prm, nil, g)
	if err != nil {
		t.Fatalf("rd allreduce rejected: %v", err)
	}
	if rep.Reduces != 7*128 {
		t.Errorf("rd allreduce: %d reduces, want %d", rep.Reduces, 7*128)
	}
	short := s.Clone()
	short.Steps = short.Steps[:6]
	_, err = AnalyzeGoalHealth(short, prm, nil, g)
	if err == nil || !strings.Contains(err.Error(), "rank 0 ends block 0 with 64 of 128 contributions") {
		t.Errorf("six of seven steps: %v", err)
	}
	twice := s.Clone()
	twice.Steps = slices.Insert(twice.Steps, 6, twice.Steps[5])
	_, err = AnalyzeGoalHealth(twice, prm, nil, g)
	if err == nil || !strings.Contains(err.Error(), "step 6 xfer 0: double fold into rank 32 block 0") {
		t.Errorf("a step repeated: %v", err)
	}
}
