package sched

import (
	"testing"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

// These tables pin the exact text, and so the order, of every error
// Schedule.Validate and the analyzer can report. They were written
// against the map-and-Sprintf implementations and must pass unchanged
// on any rewrite of either: callers (mha sched, the tuner's cache
// re-verification, verify's run violations) surface these strings.

// whole is a whole-range transfer of count blocks over the default
// transport on a msg-byte schedule.
func whole(src, dst, first, count, msg int) Transfer {
	return Transfer{Src: src, Dst: dst, First: first, Count: count, Len: count * msg}
}

func TestValidateErrorText(t *testing.T) {
	topo := topology.New(2, 2, 2) // ranks 0,1 on node 0; 2,3 on node 1
	const msg = 100
	ok := whole(0, 1, 0, 1, msg)
	// flood is maxPerPair+1 identical 0->1 transfers: the last one is
	// the pair-limit violation.
	flood := repeat(ok, maxPerPair+1)
	self := whole(1, 1, 0, 1, msg)
	one := func(x Transfer) []Step { return []Step{{Xfers: []Transfer{x}}} }

	cases := []struct {
		name string
		s    Schedule
		want string
	}{
		{"message size", Schedule{Topo: topo, Msg: -1},
			"sched: message size -1 outside [0,4294967296]"},
		{"step limit", Schedule{Topo: topo, Msg: msg, Steps: make([]Step, maxSteps+1)},
			"sched: 513 steps exceed the 512-step limit"},
		{"block space", Schedule{Topo: topo, Msg: msg, NumBlocks: -2},
			"sched: block space -2 outside [0,1048576]"},

		{"rank range", Schedule{Topo: topo, Msg: msg, Steps: one(whole(0, 7, 0, 1, msg))},
			"sched: step 0 xfer 0: rank out of range in 0->7 (size 4)"},
		{"self transfer", Schedule{Topo: topo, Msg: msg, Steps: one(self)},
			"sched: step 0 xfer 0: self transfer on rank 1 (use a copy)"},
		{"block range", Schedule{Topo: topo, Msg: msg, Steps: one(whole(0, 1, 3, 2, msg))},
			"sched: step 0 xfer 0: block range [3,5) out of [0,4)"},
		{"explicit block space", Schedule{Topo: topo, Msg: msg, NumBlocks: 9, Steps: one(whole(0, 1, 8, 2, msg))},
			"sched: step 0 xfer 0: block range [8,10) out of [0,9)"},
		{"byte window", Schedule{Topo: topo, Msg: msg, Steps: one(Transfer{Src: 0, Dst: 1, Count: 1, Off: 50, Len: 100})},
			"sched: step 0 xfer 0: byte window [50,150) outside range of 100 bytes"},
		{"empty window", Schedule{Topo: topo, Msg: msg, Steps: one(Transfer{Src: 0, Dst: 1, Count: 1})},
			"sched: step 0 xfer 0: empty byte window"},
		{"unknown transport", Schedule{Topo: topo, Msg: msg, Steps: one(Transfer{Src: 0, Dst: 1, Count: 1, Len: msg, Via: 9})},
			"sched: step 0 xfer 0: unknown transport 9"},
		{"rail range", Schedule{Topo: topo, Msg: msg, Steps: one(Transfer{Src: 0, Dst: 2, Count: 1, Len: msg, Via: ViaRail, Rail: 5})},
			"sched: step 0 xfer 0: rail 5 out of range [0,2)"},
		{"rail on policy transfer", Schedule{Topo: topo, Msg: msg, Steps: one(Transfer{Src: 0, Dst: 2, Count: 1, Len: msg, Via: ViaHCA, Rail: 1})},
			"sched: step 0 xfer 0: rail 1 set on a hca transfer"},
		{"cross-node pull", Schedule{Topo: topo, Msg: msg, Steps: one(Transfer{Src: 0, Dst: 2, Count: 1, Len: msg, Via: ViaPull})},
			"sched: step 0 xfer 0: pull between ranks 0 and 2 on different nodes"},
		{"partial reduce", Schedule{Topo: topo, Msg: msg, Steps: one(Transfer{Src: 0, Dst: 1, Count: 1, Len: 50, Red: true})},
			"sched: step 0 xfer 0: reducing transfer carries a partial window"},
		{"reducing pull", Schedule{Topo: topo, Msg: msg, Steps: one(Transfer{Src: 0, Dst: 1, Count: 1, Len: msg, Via: ViaPull, Red: true})},
			"sched: step 0 xfer 0: reducing transfer cannot be a pull"},

		{"pair limit", Schedule{Topo: topo, Msg: msg, Steps: []Step{{Xfers: []Transfer{ok}}, {Xfers: flood}}},
			"sched: step 1 xfer 128: more than 128 transfers 0->1 in one step"},
		{"pair limit is per pair", Schedule{Topo: topo, Msg: msg, Steps: []Step{{
			// 128 each way and 128 to another peer fit; the 129th 1->0 does not.
			Xfers: append(append(append(append([]Transfer(nil), flood[:maxPerPair]...),
				repeat(whole(1, 0, 1, 1, msg), maxPerPair)...),
				repeat(whole(0, 2, 0, 1, msg), maxPerPair)...),
				whole(1, 0, 1, 1, msg))}}},
			"sched: step 0 xfer 384: more than 128 transfers 1->0 in one step"},
		{"pair limit before a later shape error", Schedule{Topo: topo, Msg: msg, Steps: []Step{{
			Xfers: append(append([]Transfer(nil), flood...), self)}}},
			"sched: step 0 xfer 128: more than 128 transfers 0->1 in one step"},
		{"shape error before a later pair limit", Schedule{Topo: topo, Msg: msg, Steps: []Step{{
			Xfers: append(append(append([]Transfer(nil), flood[:5]...), self), flood...)}}},
			"sched: step 0 xfer 5: self transfer on rank 1 (use a copy)"},
		{"transfers before copies", Schedule{Topo: topo, Msg: msg, Steps: []Step{{
			Xfers: []Transfer{ok, self}, Copies: []Copy{{Rank: 9, Count: 1}}}}},
			"sched: step 0 xfer 1: self transfer on rank 1 (use a copy)"},

		{"copy rank", Schedule{Topo: topo, Msg: msg, Steps: []Step{{}, {Copies: []Copy{{Rank: 0, Count: 1}, {Rank: 9, Count: 1}}}}},
			"sched: step 1 copy 1: rank 9 out of range"},
		{"copy block range", Schedule{Topo: topo, Msg: msg, Steps: []Step{{Copies: []Copy{{Rank: 0, First: 3, Count: 2}}}}},
			"sched: step 0 copy 0: block range [3,5) out of [0,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the schedule, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("Validate error text moved:\n got %q\nwant %q", err, tc.want)
			}
		})
	}
}

func repeat(x Transfer, n int) []Transfer {
	out := make([]Transfer, n)
	for i := range out {
		out[i] = x
	}
	return out
}

func TestAnalyzeViolationText(t *testing.T) {
	prm := netmodel.Thor()
	const msg = 64
	quad := topology.New(2, 2, 2) // ranks 0,1 on node 0; 2,3 on node 1
	tri := topology.New(3, 1, 2)  // one rank per node

	// reduceGoal: ranks 0 and 1 each contribute the one block, rank 2
	// must end with both contributions folded.
	reduceGoal := &Goal{Blocks: 1,
		Init: [][]Range{{{First: 0, Count: 1}}, {{First: 0, Count: 1}}, nil},
		Want: [][]Range{nil, nil, {{First: 0, Count: 1}}}}
	red := func(src int) Transfer {
		x := whole(src, 2, 0, 1, msg)
		x.Red = true
		return x
	}
	pin := func(src, dst, block, rail int) Transfer {
		return Transfer{Src: src, Dst: dst, First: block, Count: 1, Len: msg, Via: ViaRail, Rail: rail}
	}
	ring := func(steps int) []Step { return Ring(quad, msg).Steps[:steps] }

	cases := []struct {
		name   string
		s      Schedule
		health []float64
		goal   *Goal
		want   string
	}{
		{name: "shape errors come first and bare",
			s:    Schedule{Topo: quad, Msg: msg, Steps: []Step{{Xfers: []Transfer{whole(0, 1, 3, 1, msg), whole(1, 1, 0, 1, msg)}}}},
			want: "sched: step 0 xfer 1: self transfer on rank 1 (use a copy)"},
		{name: "send before hold",
			s: Schedule{Topo: quad, Msg: msg, Steps: append([]Step{{
				Xfers: append(append([]Transfer(nil), ring(1)[0].Xfers...), whole(0, 1, 3, 1, msg))}}, Ring(quad, msg).Steps[1:]...)},
			want: "sched: invalid schedule: step 0 xfer 4: rank 0 sends block 3 before holding it"},
		{name: "send before hold names the first unheld block of the range",
			s: Schedule{Topo: quad, Msg: msg, Steps: []Step{{Xfers: []Transfer{whole(1, 0, 0, 4, msg)}}}},
			// The unheld blocks still arrive, carrying no contribution, and
			// replace what rank 0 held of them.
			want: "sched: invalid schedule: step 0 xfer 0: rank 1 sends block 0 before holding it; rank 0 ends block 0 with 0 of 1 contributions; rank 0 ends block 2 with 0 of 1 contributions; rank 0 ends block 3 with 0 of 1 contributions; rank 1 ends missing block 0; rank 1 ends missing block 2; rank 1 ends missing block 3; rank 2 ends missing block 0; and 2 more"},
		{name: "stage before hold",
			s: Schedule{Topo: quad, Msg: msg, Steps: append([]Step{{
				Xfers: ring(1)[0].Xfers, Copies: []Copy{{Rank: 1, First: 1, Count: 1}, {Rank: 0, First: 0, Count: 3}}}}, Ring(quad, msg).Steps[1:]...)},
			want: "sched: invalid schedule: step 0 copy 1: rank 0 stages block 1 before holding it"},
		{name: "pinned to down rail", health: []float64{1, 0},
			s: Schedule{Topo: tri, Msg: msg, Steps: []Step{
				{Xfers: []Transfer{pin(0, 1, 0, 0), pin(1, 2, 1, 1), pin(2, 0, 2, 0)}},
				{Xfers: []Transfer{pin(0, 2, 0, 1), pin(1, 0, 1, 0), pin(2, 1, 2, 0)}}}},
			want: "sched: invalid schedule: step 0 xfer 1: pinned to down rail 1; step 1 xfer 0: pinned to down rail 1"},
		{name: "rail conflict tx",
			s: Schedule{Topo: quad, Msg: msg, Steps: []Step{{Xfers: []Transfer{
				pin(0, 2, 0, 1), pin(1, 3, 1, 1)}}}},
			want: "sched: invalid schedule: step 0 xfer 1: rail conflict: node 0 rail 1 tx pinned twice; step 0 xfer 1: rail conflict: node 1 rail 1 rx pinned twice; rank 0 ends missing block 1; rank 0 ends missing block 2; rank 0 ends missing block 3; rank 1 ends missing block 0; rank 1 ends missing block 2; rank 1 ends missing block 3; and 2 more"},
		{name: "rail conflict rx only",
			s: Schedule{Topo: tri, Msg: msg, Steps: []Step{
				{Xfers: []Transfer{pin(0, 2, 0, 0), pin(1, 2, 1, 0), pin(2, 0, 2, 1)}},
				{Xfers: []Transfer{pin(0, 1, 0, 1), pin(1, 0, 1, 0), pin(2, 1, 2, 1)}}}},
			want: "sched: invalid schedule: step 0 xfer 1: rail conflict: node 2 rail 0 rx pinned twice; step 1 xfer 2: rail conflict: node 1 rail 1 rx pinned twice"},
		{name: "rail conflict tx only",
			s: Schedule{Topo: tri, Msg: msg, Steps: []Step{
				{Xfers: []Transfer{pin(0, 1, 0, 1), pin(0, 2, 0, 1), pin(1, 0, 1, 0), pin(2, 0, 2, 1)}},
				{Xfers: []Transfer{pin(1, 2, 1, 0), pin(2, 1, 2, 0)}}}},
			want: "sched: invalid schedule: step 0 xfer 1: rail conflict: node 0 rail 1 tx pinned twice"},
		{name: "fold into partial block", goal: reduceGoal,
			s: Schedule{Topo: tri, Msg: msg, NumBlocks: 1, Steps: []Step{
				{Xfers: []Transfer{{Src: 0, Dst: 2, Count: 1, Len: msg / 2, Via: ViaRail}}},
				{Xfers: []Transfer{red(1)}}}},
			want: "sched: invalid schedule: step 1 xfer 0: rank 2 folds into partially held block 0; rank 2 ends missing block 0"},
		{name: "double fold", goal: reduceGoal,
			s: Schedule{Topo: tri, Msg: msg, NumBlocks: 1, Steps: []Step{
				{Xfers: []Transfer{whole(0, 2, 0, 1, msg)}},
				{Xfers: []Transfer{red(0)}}}},
			want: "sched: invalid schedule: step 1 xfer 0: double fold into rank 2 block 0; rank 2 ends block 0 with 1 of 2 contributions"},
		{name: "wrong contribution count", goal: reduceGoal,
			s: Schedule{Topo: tri, Msg: msg, NumBlocks: 1, Steps: []Step{
				{Xfers: []Transfer{red(1)}}}},
			want: "sched: invalid schedule: rank 2 ends block 0 with 1 of 2 contributions"},
		{name: "missing block",
			s:    Schedule{Topo: quad, Msg: msg, Steps: ring(2)},
			want: "sched: invalid schedule: rank 0 ends missing block 1; rank 1 ends missing block 2; rank 2 ends missing block 3; rank 3 ends missing block 0"},
		{name: "more than eight, and the completeness scan stops early",
			s:    Schedule{Topo: quad, Msg: msg},
			want: "sched: invalid schedule: rank 0 ends missing block 1; rank 0 ends missing block 2; rank 0 ends missing block 3; rank 1 ends missing block 0; rank 1 ends missing block 2; rank 1 ends missing block 3; rank 2 ends missing block 0; rank 2 ends missing block 1; and 1 more"},
		{name: "order within and across steps", health: []float64{1, 0}, goal: reduceGoal,
			// Per step: each transfer's hold, down-rail, tx and rx findings
			// in transfer order, then the copies', then the deliveries'.
			s: Schedule{Topo: tri, Msg: msg, NumBlocks: 1, Steps: []Step{
				{Xfers: []Transfer{whole(0, 2, 0, 1, msg)},
					Copies: []Copy{{Rank: 2, Count: 1}}},
				{Xfers: []Transfer{red(0),
					{Src: 2, Dst: 1, Count: 1, Len: msg, Via: ViaRail, Rail: 1},
					{Src: 2, Dst: 1, Count: 1, Len: msg, Via: ViaRail, Rail: 1}},
					Copies: []Copy{{Rank: 0, Count: 1}}},
				{Copies: []Copy{{Rank: 2, Count: 1}}}}},
			want: "sched: invalid schedule: step 0 copy 0: rank 2 stages block 0 before holding it; step 1 xfer 1: pinned to down rail 1; step 1 xfer 2: pinned to down rail 1; step 1 xfer 2: rail conflict: node 2 rail 1 tx pinned twice; step 1 xfer 2: rail conflict: node 1 rail 1 rx pinned twice; step 1 xfer 0: double fold into rank 2 block 0; rank 2 ends block 0 with 1 of 2 contributions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := AnalyzeGoalHealth(&tc.s, prm, tc.health, tc.goal)
			if err == nil {
				t.Fatalf("analyzer accepted the schedule, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("analyzer error text moved:\n got %q\nwant %q", err, tc.want)
			}
		})
	}
}
