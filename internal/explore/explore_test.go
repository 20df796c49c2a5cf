package explore

import (
	"strings"
	"testing"

	"mha/internal/mpi"
	"mha/internal/verify"
)

// orderBug is the deliberately seeded ordering bug: every rank sends its
// block to every peer under ONE shared tag, and receivers file the
// blocks into slots by arrival position (AnySource, in arrival order)
// instead of by source rank. The canonical schedule happens to deliver
// same-time arrivals in rank order, so the randomized campaign's runs
// pass; only an execution that reorders two simultaneous deposits into
// one mailbox exposes the bug — exactly the class the explorer exists
// to catch.
func orderBug(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	c := w.CommWorld()
	m := send.Len()
	n := c.Size()
	me := c.Rank(p)
	p.LocalCopy(recv.Slice(me*m, m), send)
	if n == 1 {
		return
	}
	tag := mpi.Tag(c.Epoch(p), 13, 0)
	var sreqs []*mpi.Request
	for r := 0; r < n; r++ {
		if r != me {
			sreqs = append(sreqs, p.Isend(c, r, tag, send))
		}
	}
	slot := 0
	for k := 0; k < n-1; k++ {
		if slot == me {
			slot++
		}
		data := p.Recv(c, mpi.AnySource, tag) // assumes arrival order == rank order
		recv.Slice(slot*m, m).CopyFrom(data)
		slot++
	}
	p.Waitall(sreqs...)
}

func registerOrderBug() {
	verify.Register(verify.Algorithm{Name: "order-bug", Run: orderBug})
}

func TestExploreRingHealthyComplete(t *testing.T) {
	rep, err := Run(Options{Algs: []string{"ring"}, Nodes: 1, PPN: 2, HCAs: 1, Msg: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Error("2-rank ring exploration did not complete")
	}
	if rep.Counterexamples != 0 {
		t.Errorf("ring produced counterexamples: %+v", rep.Placements)
	}
	if rep.Executions < 1 || rep.Steps < 1 {
		t.Errorf("implausible exploration: %d executions, %d steps", rep.Executions, rep.Steps)
	}
}

func TestExploreWithFaultPlacements(t *testing.T) {
	rep, err := Run(Options{Algs: []string{"ring"}, Nodes: 2, PPN: 1, HCAs: 2, Msg: 4, FaultBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy world + one Down placement per (node, rail).
	if want := 1 + 2*2; len(rep.Placements) != want {
		t.Fatalf("explored %d placements, want %d", len(rep.Placements), want)
	}
	if !rep.Complete {
		t.Error("fault-placement exploration did not complete")
	}
	if rep.Counterexamples != 0 {
		for _, pr := range rep.Placements {
			for _, ce := range pr.Counterexamples {
				t.Errorf("%s %s: %s -> %v", pr.Alg, pr.Fault, ce.Shrunk, ce.Violations)
			}
		}
	}
}

// TestDPORAgreesWithFullEnumeration cross-checks the reduction on a
// world small enough to enumerate unreduced: both searches must complete
// with the same verdict, and the reduced one must not do more work.
func TestDPORAgreesWithFullEnumeration(t *testing.T) {
	registerOrderBug()
	for _, alg := range []string{"ring", "order-bug"} {
		// The cap matters for ring: single-node worlds explode honestly
		// (the per-node memory gauge couples every simultaneous send), so
		// both searches stop at the bound and the comparison is between
		// equally-budgeted searches. order-bug converges far below it.
		opt := Options{Algs: []string{alg}, Nodes: 1, PPN: 3, HCAs: 1, Msg: 2,
			MaxExecs: 500, MaxCounterexamples: 1, ShrinkBudget: 10}
		reduced, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Full = true
		full, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if (reduced.Counterexamples > 0) != (full.Counterexamples > 0) {
			t.Errorf("%s: reduced search found %d counterexamples, full %d",
				alg, reduced.Counterexamples, full.Counterexamples)
		}
		if reduced.Executions > full.Executions {
			t.Errorf("%s: reduction ran MORE executions than full enumeration (%d > %d)",
				alg, reduced.Executions, full.Executions)
		}
		t.Logf("%s: reduced %d executions vs full %d", alg, reduced.Executions, full.Executions)
	}
}

// TestSeededOrderingBugCaughtAndShrunk is the tentpole's acceptance
// test: the planted arrival-order bug must be caught, and the shrunk
// counterexample must be a one-line spec that parses and replays to the
// same failure.
func TestSeededOrderingBugCaughtAndShrunk(t *testing.T) {
	registerOrderBug()
	// The canonical schedule must pass: the bug hides from single-order
	// testing, including the whole randomized campaign.
	if vs, err := Replay(Spec{Alg: "order-bug", Nodes: 1, PPN: 3, HCAs: 1, Msg: 2, Fault: NoFault}); err != nil || len(vs) > 0 {
		t.Fatalf("canonical run of order-bug should pass (err %v, violations %v)", err, vs)
	}
	rep, err := Run(Options{Algs: []string{"order-bug"}, Nodes: 1, PPN: 3, HCAs: 1, Msg: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counterexamples == 0 {
		t.Fatal("explorer missed the seeded ordering bug")
	}
	ce := rep.Placements[0].Counterexamples[0]
	if strings.ContainsAny(ce.Shrunk, "\n") {
		t.Errorf("shrunk repro is not one line: %q", ce.Shrunk)
	}
	spec, perr := ParseSpec(ce.Shrunk)
	if perr != nil {
		t.Fatalf("shrunk repro does not parse: %v\n  %s", perr, ce.Shrunk)
	}
	vs, rerr := Replay(spec)
	if rerr != nil {
		t.Fatalf("shrunk repro does not replay: %v\n  %s", rerr, ce.Shrunk)
	}
	if len(vs) == 0 {
		t.Fatalf("shrunk repro passes on replay: %s", ce.Shrunk)
	}
	hasOracle := false
	for _, v := range ce.Violations {
		if v.Kind == "oracle" {
			hasOracle = true
		}
	}
	if !hasOracle {
		t.Errorf("counterexample violations lack an oracle report: %v", ce.Violations)
	}
	t.Logf("caught and shrunk to: %s", ce.Shrunk)
}

// TestReductionIsEffective asserts the acceptance bound: on the 4-rank
// 2-rail benchmark shape the visited execution count stays under 10% of
// the unreduced interleaving estimate.
func TestReductionIsEffective(t *testing.T) {
	rep, err := Run(Options{Algs: []string{"ring"}, Nodes: 2, PPN: 2, HCAs: 2, Msg: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatal("benchmark-shape exploration did not complete")
	}
	if rep.SpaceEstimate < 10 {
		t.Fatalf("implausibly small interleaving estimate %g", rep.SpaceEstimate)
	}
	if ratio := float64(rep.Executions) / rep.SpaceEstimate; ratio >= 0.10 {
		t.Errorf("DPOR visited %d executions of ~%.0f interleavings (%.1f%%, want < 10%%)",
			rep.Executions, rep.SpaceEstimate, 100*ratio)
	}
	t.Logf("visited %d of ~%.3g estimated interleavings (%d steps)",
		rep.Executions, rep.SpaceEstimate, rep.Steps)
}

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []Spec{
		{Alg: "ring", Nodes: 2, PPN: 2, HCAs: 2, Msg: 8, Fault: NoFault},
		{Alg: "rd", Nodes: 2, PPN: 2, HCAs: 1, Msg: 0, Fault: Placement{Node: 1, Rail: 0}},
		{Alg: "ring", Nodes: 1, PPN: 3, HCAs: 2, Msg: 2, Fault: NoFault, Choices: []int{0, 2, 1}},
	} {
		line := s.String()
		got, err := ParseSpec(line)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", line, err)
		}
		if got.String() != line {
			t.Errorf("round trip drifted: %q -> %q", line, got.String())
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"nodes=2",                             // missing alg
		"alg=no-such-variant nodes=2",         // unknown variant
		"alg=ring nodes=x",                    // non-numeric
		"alg=ring bogus=1",                    // unknown key
		"alg=ring nodes=0",                    // invalid topology
		"alg=ring nodes=4 ppn=4",              // 16 ranks > exhaustive limit
		"alg=ring nodes=2 sched=0.-1.2",       // negative choice
		"alg=ring nodes=2 sched=a.b",          // non-numeric choice
		"alg=ring nodes=2 fault=node5.rail0",  // fault off-cluster
		"alg=ring nodes=2 fault=node0.railxy", // malformed fault
		"alg=ring alg=rd nodes=2",             // repeated key
		// 2^32 x 2^32 ranks wrap to 0.
		"alg=ring nodes=4294967296 ppn=4294967296",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted garbage", bad)
		}
	}
}

func TestReplayRejectsUnfittingSchedule(t *testing.T) {
	// 2-rank single-rail ring has tiny frontiers; choice index 7 cannot
	// correspond to any real decision.
	_, err := Replay(Spec{Alg: "ring", Nodes: 1, PPN: 2, HCAs: 1, Msg: 2, Fault: NoFault, Choices: []int{7}})
	if err == nil {
		t.Fatal("replay accepted a schedule that does not fit the world")
	}
}

// TestReplayRejectsDanglingChoices: a choice list longer than the run is
// legal only while the surplus is canonical. This 2-rank ring makes 7
// decisions; a 1 at decision 96 names an alternative of a decision that
// never happened, and used to replay "clean".
func TestReplayRejectsDanglingChoices(t *testing.T) {
	s := Spec{Alg: "ring", Nodes: 1, PPN: 2, HCAs: 1, Msg: 2, Fault: NoFault, Choices: make([]int, 97)}
	if vs, err := Replay(s); err != nil || len(vs) != 0 {
		t.Fatalf("surplus zeros: err %v, violations %v; want a clean replay", err, vs)
	}
	s.Choices[96] = 1
	_, err := Replay(s)
	const want = "explore: schedule does not replay: choice 1 at decision 96, but the execution made only 7 decisions"
	if err == nil || err.Error() != want {
		t.Fatalf("dangling choice: err = %v, want %q", err, want)
	}
	// The same choice inside the run is judged against its frontier as before.
	s.Choices = []int{0, 0, 0, 0, 0, 0, 1}
	if _, err := Replay(s); err != nil {
		t.Fatalf("choice 1 at the last real decision: %v", err)
	}
}
