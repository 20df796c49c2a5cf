package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mha/internal/mpi"
	"mha/internal/sim"
	"mha/internal/topology"
)

// TestCampaignHeadClean is the standing correctness gate: a seeded
// campaign over every registered variant must find nothing on HEAD. The
// campaign itself also exercises the determinism cross-check (every
// scenario runs twice).
func TestCampaignHeadClean(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	rep, err := Campaign(n, 42, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != n {
		t.Fatalf("ran %d scenarios, want %d", rep.Scenarios, n)
	}
	for _, f := range rep.Failures {
		t.Errorf("FAIL %s\n  shrunk: %s\n  %v", f.Scenario.Spec(), f.Shrunk.Spec(), f.Violations)
	}
	if len(rep.PerAlg) < 10 {
		t.Errorf("campaign only touched %d algorithms: %v", len(rep.PerAlg), rep.PerAlg)
	}
}

// brokenRing is a deliberately mutated ring allgather: the forwarded block
// lands one byte past its slot whenever the buffer leaves room — the
// off-by-one class of bug the harness exists to catch.
func brokenRing(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	c := w.CommWorld()
	m := send.Len()
	n := c.Size()
	me := c.Rank(p)
	p.LocalCopy(recv.Slice(me*m, m), send)
	if n == 1 {
		return
	}
	right, left := (me+1)%n, (me-1+n)%n
	cur := me
	for s := 0; s < n-1; s++ {
		tag := mpi.Tag(c.Epoch(p), 12, s)
		rreq := p.Irecv(c, left, tag)
		sreq := p.Isend(c, right, tag, recv.Slice(cur*m, m))
		data := p.Wait(rreq)
		cur = (cur - 1 + n) % n
		off := cur * m
		if off+1+m <= recv.Len() && m > 0 {
			off++ // the mutation
		}
		recv.Slice(off, m).CopyFrom(data)
		p.Wait(sreq)
	}
}

// TestMutationCaught proves the differential oracle plus shrinker pipeline
// catches a planted bug and produces a minimal, replayable repro spec.
func TestMutationCaught(t *testing.T) {
	Register(Algorithm{Name: "broken-ring", Run: brokenRing})
	rep, err := Campaign(12, 7, Options{Algs: []string{"broken-ring"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("planted off-by-one survived a 12-scenario campaign")
	}
	for _, f := range rep.Failures {
		sh := f.Shrunk
		if sh.Nodes*sh.PPN > 4 || sh.Msg > 64 || sh.Faults.Len() > 0 {
			t.Errorf("shrinker left a large repro: %s", sh.Spec())
		}
		hasOracle := false
		for _, v := range f.Violations {
			if v.Kind == "oracle" {
				hasOracle = true
			}
		}
		if !hasOracle {
			t.Errorf("violations lack an oracle report: %v", f.Violations)
		}
		// The one-line spec must replay to the same verdict.
		replay, perr := ParseSpec(sh.Spec())
		if perr != nil {
			t.Fatalf("shrunk spec does not parse: %v\n  %s", perr, sh.Spec())
		}
		if len(Check(replay)) == 0 {
			t.Errorf("replayed repro passed: %s", sh.Spec())
		}
	}
}

// plantFlaky registers "broken-flaky": a correct ring allgather whose
// ranks then run misbehave, told whether their world is a later one than
// the first they saw — cross-run mutable state, the thing Check's second
// run is for.
func plantFlaky(t *testing.T, misbehave func(p *mpi.Proc, recv mpi.Buf, second bool)) {
	var mu sync.Mutex
	var first *mpi.World
	plant(t, Algorithm{Name: "broken-flaky", Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		mu.Lock()
		if first == nil {
			first = w
		}
		second := w != first
		mu.Unlock()
		ByNameMust("ring").Run(p, w, send, recv)
		misbehave(p, recv, second)
	}})
}

// TestSecondRunCaught: whatever only the second of Check's two runs does
// wrong is reported — a timing change, or the same events recorded in
// another order, as "determinism" naming the first event that differs,
// and a wrong byte, or a panic under its own kind, marked "second run: "
// — including a wrong byte that leaves the trace alone.
func TestSecondRunCaught(t *testing.T) {
	sc := Scenario{Alg: "broken-flaky", Cluster: topology.New(2, 2, 1), Msg: 64, Seed: 1}
	cases := []struct {
		name      string
		misbehave func(p *mpi.Proc, recv mpi.Buf, second bool)
		want      []string // headlines
	}{
		{"slower", func(p *mpi.Proc, _ mpi.Buf, second bool) {
			if second && p.Rank() == 0 {
				p.Compute(5 * sim.Microsecond)
			}
		}, []string{"determinism: event 40 is no event vs {Rank:0 Cat:compute Name:compute Start:6.017us End:11.017us Peer:-1 Bytes:0} across identical runs"}},
		{"wrong byte, same timeline", func(p *mpi.Proc, recv mpi.Buf, second bool) {
			if second && p.Rank() == 1 {
				recv.Data()[0] ^= 0xff
			}
		}, []string{"oracle: second run: rank 1: block 0 byte 0 = 0xfc, want 0x03"}},
		{"panic", func(p *mpi.Proc, _ mpi.Buf, second bool) {
			if second && p.Rank() == 3 {
				panic("boom")
			}
		}, []string{`run: second run: sim: process "rank3" (id 3) panicked: boom`,
			"determinism: event 39 is {Rank:1 Cat:wait Name:wait-send Start:4.717us End:6.017us Peer:-1 Bytes:0} vs no event across identical runs"}},
		// Every rank computes from the same instant, so the two runs' events
		// sort, and hash, alike. Each rank gets there by a last step of its
		// own length, the longest waking first: in rank order in the first
		// run and in reverse in the second, which records them the other way
		// round.
		{"same events, another order", func(p *mpi.Proc, _ mpi.Buf, second bool) {
			const at = sim.Time(sim.Millisecond)
			last := sim.Time(p.Size() - p.Rank())
			if second {
				last = sim.Time(p.Rank() + 1)
			}
			p.Sleep(sim.Duration(at - last - p.Now()))
			p.Sleep(sim.Duration(last))
			p.Compute(sim.Microsecond)
		}, []string{"determinism: event 40 is {Rank:0 Cat:compute Name:compute Start:1000.000us End:1001.000us Peer:-1 Bytes:0} " +
			"vs {Rank:3 Cat:compute Name:compute Start:1000.000us End:1001.000us Peer:-1 Bytes:0} across identical runs"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plantFlaky(t, tc.misbehave)
			var got []string
			for _, v := range Check(sc) {
				got = append(got, headline(v))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("violations %q, want %q", got, tc.want)
			}
		})
	}
}

// ByNameMust is a test helper; it panics on unknown names.
func ByNameMust(name string) Algorithm {
	a, ok := ByName(name)
	if !ok {
		panic("unknown algorithm " + name)
	}
	return a
}

// TestSpecRoundTrip: every generated scenario must survive
// Spec -> ParseSpec -> Spec byte-identically, including fault schedules.
func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	algs := Algorithms()
	for i := 0; i < 100; i++ {
		sc := Generate(rng, algs, 48)
		spec := sc.Spec()
		back, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("spec %q does not parse: %v", spec, err)
		}
		if back.Spec() != spec {
			t.Fatalf("round trip changed the spec:\n  in:  %s\n  out: %s", spec, back.Spec())
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"nodes=2",                         // missing alg
		"alg=no-such-algorithm nodes=2",   // unknown variant
		"alg=ring nodes=x",                // non-numeric
		"alg=ring bogus=1",                // unknown key
		"alg=ring nodes=0",                // invalid topology
		"alg=mha-intra nodes=2 ppn=2",     // contract violation
		"alg=ring faults=down node=5 z=1", // bad fault field
		"alg=ring nodes=2 ppn=1 layout=hexagonal",
		"alg=ring alg=mha nodes=2 ppn=2 hcas=2", // repeated key
		"alg=ring nodes=2 nodes=4",              // repeated key
		"alg=ring blind=yes",                    // not a 0/1 flag
		"alg=ring nodes=2 jitter=5",             // outside [0, 1]
		"alg=ring nodes=2 jitter=+Inf",
		"alg=ring nodes=2 jitter=NaN",
		"alg=ring nodes=2 jitter=-0.5",
		"alg=ring nodes=2 hcas=2 faults=degrade node=0 rail=0 frac=NaN",
		// 2^32 x 2^32 ranks wrap to 0.
		"alg=ring nodes=4294967296 ppn=4294967296",
		// Fits an int, but past MaxScenarioRanks.
		"alg=ring nodes=3037000499 ppn=3037000499",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted garbage", bad)
		}
	}
}

// TestShrinkIsGreedyMinimal: shrinking an already-minimal failing scenario
// is a fixed point.
func TestShrinkFixedPoint(t *testing.T) {
	Register(Algorithm{Name: "broken-ring", Run: brokenRing})
	min := Scenario{Alg: "broken-ring", Cluster: topology.New(1, 2, 1), Msg: 1, Seed: 1}
	vs := Check(min)
	if len(vs) == 0 {
		t.Fatal("expected the minimal broken-ring scenario to fail")
	}
	shrunk, _, _ := Shrink(min, vs, 100)
	if shrunk.Spec() != min.Spec() {
		t.Fatalf("shrinking a minimal scenario changed it: %s -> %s", min.Spec(), shrunk.Spec())
	}
}

// TestShrinkRespectsBudget: the budget is documented as "candidate
// evaluations per failure" — Shrink must never evaluate more candidates
// than that, a budget of 1 must hand back a scenario without panicking
// or looping, and the returned violations must belong to the returned
// scenario without costing an extra evaluation.
func TestShrinkRespectsBudget(t *testing.T) {
	Register(Algorithm{Name: "broken-ring", Run: brokenRing})
	// A deliberately non-minimal failing scenario so shrinking has work.
	sc := Scenario{Alg: "broken-ring", Cluster: topology.New(2, 4, 2), Msg: 64, Seed: 7}
	vs := Check(sc)
	if len(vs) == 0 {
		t.Fatal("expected the broken-ring scenario to fail")
	}
	for _, budget := range []int{0, 1, 2, 5, 40} {
		shrunk, svs, used := Shrink(sc, vs, budget)
		if used > budget {
			t.Errorf("budget %d: Shrink evaluated %d candidates", budget, used)
		}
		if err := shrunk.Validate(); err != nil {
			t.Errorf("budget %d: shrunk scenario invalid: %v", budget, err)
		}
		if len(svs) == 0 {
			t.Errorf("budget %d: shrunk scenario %s reported no violations", budget, shrunk.Spec())
		}
		if got := Check(shrunk); len(got) == 0 {
			t.Errorf("budget %d: returned scenario %s does not actually fail", budget, shrunk.Spec())
		}
	}
	// With no budget at all the original scenario must come straight back.
	shrunk, svs, used := Shrink(sc, vs, 0)
	if shrunk.Spec() != sc.Spec() || used != 0 {
		t.Errorf("budget 0 shrank %s to %s (used %d)", sc.Spec(), shrunk.Spec(), used)
	}
	if fmt.Sprint(svs) != fmt.Sprint(vs) {
		t.Errorf("budget 0 changed violations: %v vs %v", svs, vs)
	}
}

// TestCampaignChecksStayWithinShrinkBudget: the campaign's accounting
// must show at most ShrinkBudget extra checks per failure — the old
// implementation spent budget+1 by re-checking the shrunk scenario.
func TestCampaignChecksStayWithinShrinkBudget(t *testing.T) {
	Register(Algorithm{Name: "broken-ring", Run: brokenRing})
	const n, budget = 6, 1
	rep, err := Campaign(n, 99, Options{Algs: []string{"broken-ring"}, ShrinkBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("broken-ring campaign found no failures")
	}
	maxChecks := n + len(rep.Failures)*budget
	if rep.Checks > maxChecks {
		t.Errorf("campaign spent %d checks; budget allows at most %d (%d scenarios + %d failures * %d)",
			rep.Checks, maxChecks, n, len(rep.Failures), budget)
	}
	for _, f := range rep.Failures {
		if len(f.Violations) == 0 {
			t.Errorf("failure %s carries no violations", f.Shrunk.Spec())
		}
	}
}

// TestRegistryConstraints: the built-in contract flags must match the
// algorithms' documented requirements.
func TestRegistryConstraints(t *testing.T) {
	for _, name := range []string{"mha", "two-level", "multi-leader", "mha-3level"} {
		a := ByNameMust(name)
		if !a.BlockOnly {
			t.Errorf("%s must be BlockOnly (hierarchical designs assume contiguous node blocks)", name)
		}
	}
	if a := ByNameMust("mha-intra"); !a.SingleNode {
		t.Error("mha-intra must be SingleNode")
	}
	if a := ByNameMust("multi-leader"); !a.EvenPPN {
		t.Error("multi-leader (2 groups) must require even ppn")
	}
	if a := ByNameMust("ring"); a.BlockOnly || a.SingleNode || a.EvenPPN {
		t.Error("flat ring must carry no constraints")
	}
}

// TestHeterogeneousNodeProjection: the schedule builders price the
// intra-node offload on a single-node projection of the cluster; on
// mixed-HCA worlds that projection used to keep the whole machine's
// NodeHCAs table and panic in the cost model. The first two lines are
// the shrunk repros, the rest the campaign scenarios that found it.
func TestHeterogeneousNodeProjection(t *testing.T) {
	for _, spec := range []string{
		"alg=sched-mha nodes=2 ppn=1 hcas=1 sockets=0 layout=block msg=0 seed=1 jitter=0 blind=0 nodehcas=1/1 faults=none",
		"alg=compose-ag nodes=2 ppn=1 hcas=1 sockets=0 layout=block msg=0 seed=1 jitter=0 blind=0 nodehcas=1/1 faults=none",
		"alg=sched-mha nodes=4 ppn=3 hcas=2 sockets=0 layout=block msg=65536 seed=1036591731 jitter=0 blind=0 nodehcas=1/2/1/2 faults=none",
		"alg=compose-ag nodes=8 ppn=2 hcas=2 sockets=0 layout=block msg=13 seed=211160838 jitter=0.05 blind=0 nodehcas=2/1/1/1/1/1/2/1 faults=none",
	} {
		sc, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		for _, v := range Check(sc) {
			t.Errorf("%s: %s", spec, v)
		}
	}
}
