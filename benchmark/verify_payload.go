package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mha/internal/verify"
)

// knownFailing lists, one spec line each, the scenarios of the fixed
// campaign that fail at the commit the benchmark was defined at. They
// are run and counted apart (verify.known_failing), so the measured
// operations are ones that pass and a later fix shows as that count
// falling to 0.
//
//go:embed expected/verify-known-failing.txt
var knownFailing string

const (
	// campaignSeed and campaignSize fix the scenario pool: exactly what
	// verify.Campaign(400, 1, Options{NoShrink: true}) draws. The pool does
	// not depend on -seed, because the cost of 400 random scenarios varies
	// by a third from seed to seed; -seed orders the pool instead.
	campaignSeed = 1
	campaignSize = 400
	// campaignMaxRanks is verify.Campaign's default cap.
	campaignMaxRanks = 48
	// warmUpScenarios is how many scenarios set-up checks untimed.
	warmUpScenarios = 20
)

// generatePool draws the fixed campaign the way verify.Campaign does.
func generatePool(n int, tr *tracer, op int) []verify.Scenario {
	rng := rand.New(rand.NewSource(campaignSeed))
	algs := verify.Algorithms()
	pool := make([]verify.Scenario, 0, n)
	for i := 0; i < n; i++ {
		tr.call(op, op, "verify", "verify.Generate", func() {
			pool = append(pool, verify.Generate(rng, algs, campaignMaxRanks))
		})
	}
	return pool
}

func knownFailingSet() map[string]bool {
	set := map[string]bool{}
	for _, line := range strings.Split(knownFailing, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			set[line] = true
		}
	}
	return set
}

// verifyPayload drives sim and mpi the other way round from paper-sweep:
// small worlds, real bytes, tracer and invariant hooks on, every variant.
type verifyPayload struct {
	size  int
	order []int // pass order over the pool, from the seed
	known map[string]bool
	// stillFailing counts the known-failing scenarios that failed again in
	// the last pass; specs holds their lines.
	stillFailing int
	specs        []string
}

func (*verifyPayload) name() string { return "verify-payload" }

func (vp *verifyPayload) setUp(cfg config) error {
	vp.size = campaignSize
	if cfg.smoke {
		vp.size = campaignSize / 20
	}
	vp.known = knownFailingSet()
	vp.order = rand.New(rand.NewSource(cfg.seed)).Perm(vp.size)
	// Warm-up operations: the pool's first scenarios that are expected to
	// pass, enough of them for set-up to be more than timer noise.
	warm := 0
	for _, sc := range generatePool(vp.size, nil, 0) {
		if warm == warmUpScenarios {
			break
		}
		if !vp.known[sc.Spec()] {
			verify.Check(sc)
			warm++
		}
	}
	return nil
}

func (vp *verifyPayload) pass(tr *tracer) passResult {
	res := passResult{counts: map[string]float64{}}
	gen := tr.begin(0, 0, "bench", harnessSpan)
	pool := generatePool(vp.size, tr, gen)
	tr.end(gen, nil)
	vp.stillFailing, vp.specs = 0, nil
	perAlg := map[string]int{}
	for _, i := range vp.order {
		sc := pool[i]
		spec := sc.Spec()
		op := tr.begin(0, 0, "bench", harnessSpan)
		t := time.Now()
		var vs []verify.Violation
		tr.call(op, op, "verify", "verify.Check", func() { vs = verify.Check(sc) })
		secs := time.Since(t).Seconds()
		tr.end(op, nil)
		if vp.known[spec] {
			if len(vs) > 0 {
				vp.stillFailing++
				vp.specs = append(vp.specs, spec)
			}
			continue
		}
		res.opSeconds = append(res.opSeconds, secs)
		res.attempted++
		perAlg[sc.Alg]++
		if len(vs) > 0 {
			res.failures = append(res.failures, fmt.Sprintf("%s: %s", spec, firstLine(vs[0].String())))
		}
	}
	sort.Strings(vp.specs)
	res.signature = fmt.Sprintf("attempted=%d variants=%d known_failing=%d", res.attempted, len(perAlg), vp.stillFailing)
	res.counts["verify.variants"] = float64(len(perAlg))
	res.counts["verify.known_failing"] = float64(vp.stillFailing)
	return res
}

func (*verifyPayload) tearDown() {}

// finish prints the known-failing scenarios that still fail: reported,
// not counted as failed operations (README.md, "Known failures").
func (vp *verifyPayload) finish() []string {
	for _, spec := range vp.specs {
		fmt.Printf("  known-failing scenario still fails: %s\n", spec)
	}
	return nil
}
