package verify

import (
	"fmt"
	"io"
	"math/rand"

	"mha/internal/fabric"
	"mha/internal/faults"
	"mha/internal/sim"
	"mha/internal/topology"
)

// Options tunes a verification campaign. The zero value is sensible.
type Options struct {
	// Algs restricts the campaign to these registered names; nil means all.
	Algs []string
	// MaxRanks caps Nodes*PPN per scenario (default 48, at most
	// MaxScenarioRanks), bounding both run time and the n^2*m bytes the
	// oracle materializes.
	MaxRanks int
	// ShrinkBudget caps candidate evaluations per failure (default 150).
	ShrinkBudget int
	// NoShrink reports failures unminimized.
	NoShrink bool
	// Log, when non-nil, receives one line per scenario as it runs.
	Log io.Writer
}

// Failure is one scenario the harness rejected, with its minimized form.
type Failure struct {
	// Scenario is the originally generated failing scenario.
	Scenario Scenario
	// Shrunk is the minimized still-failing scenario (== Scenario when
	// shrinking is disabled or found nothing smaller).
	Shrunk Scenario
	// Violations are the shrunk scenario's violations.
	Violations []Violation
}

// Report summarizes a campaign.
type Report struct {
	// Scenarios is the number generated; PerAlg counts them by algorithm.
	Scenarios int
	PerAlg    map[string]int
	// Checks counts scenario evaluations including shrink candidates
	// (each evaluation is two simulation runs, for the determinism cross-
	// check).
	Checks int
	// Failures holds every failing scenario, shrunk and replayable.
	Failures []Failure
}

// Campaign generates and checks n random scenarios derived from seed. The
// same (n, seed, options) always yields the same scenarios. It returns an
// error only for unusable options; scenario failures land in the report.
func Campaign(n int, seed int64, opt Options) (*Report, error) {
	algs := Algorithms()
	if len(opt.Algs) > 0 {
		algs = algs[:0:0]
		for _, name := range opt.Algs {
			a, ok := ByName(name)
			if !ok {
				return nil, fmt.Errorf("verify: unknown algorithm %q", name)
			}
			algs = append(algs, a)
		}
	}
	if opt.MaxRanks <= 0 {
		opt.MaxRanks = 48
	} else if opt.MaxRanks > MaxScenarioRanks {
		return nil, fmt.Errorf("verify: MaxRanks %d exceeds the %d-rank scenario limit", opt.MaxRanks, MaxScenarioRanks)
	}
	if opt.ShrinkBudget <= 0 {
		opt.ShrinkBudget = 150
	}
	rng := rand.New(rand.NewSource(seed))
	rep := &Report{PerAlg: map[string]int{}}
	for i := 0; i < n; i++ {
		sc := Generate(rng, algs, opt.MaxRanks)
		rep.Scenarios++
		rep.PerAlg[sc.Alg]++
		rep.Checks++
		vs := Check(sc)
		if len(vs) == 0 {
			if opt.Log != nil {
				fmt.Fprintf(opt.Log, "ok   %s\n", sc.Spec())
			}
			continue
		}
		f := Failure{Scenario: sc, Shrunk: sc, Violations: vs}
		if !opt.NoShrink {
			// Shrink reports the kept scenario's violations itself, so the
			// documented "candidate evaluations per failure" budget is
			// exact: no trailing re-Check of the shrunk scenario.
			shrunk, svs, used := Shrink(sc, vs, opt.ShrinkBudget)
			rep.Checks += used
			f.Shrunk = shrunk
			f.Violations = svs
		}
		rep.Failures = append(rep.Failures, f)
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "FAIL %s\n  shrunk to: %s\n", sc.Spec(), f.Shrunk.Spec())
			for _, v := range f.Violations {
				fmt.Fprintf(opt.Log, "  %s\n", v)
			}
		}
	}
	return rep, nil
}

// Generate draws one scenario. Shapes are biased small (runs stay fast and
// shrunk repros stay readable) but cover every adversarial axis: odd and
// prime ppn, zero-byte and non-divisible messages, cyclic layouts where
// the algorithm's contract allows them, NUMA sockets, jitter, random fault
// schedules, and the health-blind transport baseline.
func Generate(rng *rand.Rand, algs []Algorithm, maxRanks int) Scenario {
	alg := algs[rng.Intn(len(algs))]
	sc := Scenario{Alg: alg.Name}

	nodeChoices := []int{1, 2, 2, 3, 4, 4, 5, 6, 8}
	ppnChoices := []int{1, 2, 2, 3, 4, 4, 5, 6, 8}
	if alg.EvenPPN {
		ppnChoices = []int{2, 2, 4, 4, 6, 8}
	}
	sc.Nodes = nodeChoices[rng.Intn(len(nodeChoices))]
	if alg.SingleNode {
		sc.Nodes = 1
	}
	sc.PPN = ppnChoices[rng.Intn(len(ppnChoices))]
	for sc.Nodes*sc.PPN > maxRanks {
		if sc.Nodes > 1 {
			sc.Nodes--
		} else if alg.EvenPPN {
			sc.PPN -= 2
		} else {
			sc.PPN--
		}
	}
	hcaChoices := []int{1, 2, 2, 3, 4}
	sc.HCAs = hcaChoices[rng.Intn(len(hcaChoices))]
	if sc.PPN%2 == 0 && rng.Float64() < 0.2 {
		sc.Sockets = 2
	}
	sc.Layout = topology.Block
	if !(alg.BlockOnly && sc.Nodes > 1) && rng.Float64() < 0.3 {
		sc.Layout = topology.Cyclic
	}

	msgChoices := []int{0, 1, 2, 3, 5, 7, 8, 13, 16, 31, 64, 100, 127,
		256, 257, 512, 1024, 2048, 4096, 8192, 65536}
	sc.Msg = msgChoices[rng.Intn(len(msgChoices))]
	// Bound the oracle's total footprint (every rank materializes n*m).
	if n := sc.Nodes * sc.PPN; n*n*sc.Msg > 32<<20 {
		sc.Msg = (32 << 20) / (n * n)
	}

	sc.Seed = 1 + rng.Int63n(1<<30)
	if rng.Float64() < 0.25 {
		sc.Jitter = 0.05
	}
	// Occasionally leave the flat fabric: an oversubscribed fat-tree, or a
	// dragonfly that tiles the node count exactly. The shared-link charging
	// only shifts virtual time, so the byte oracle and the determinism
	// cross-check apply unchanged.
	if r := rng.Float64(); r < 0.10 {
		arity := []int{2, 2, 4}[rng.Intn(3)]
		over := []string{"2", "4", "3:2"}[rng.Intn(3)]
		sc.Fabric = fmt.Sprintf("ft:arity=%d,levels=2,over=%s", arity, over)
		if s, err := fabric.ParseSpec(sc.Fabric); err == nil {
			sc.Fabric = s.String()
		}
	} else if r < 0.15 && sc.Nodes%2 == 0 && sc.Nodes >= 4 {
		sc.Fabric = fmt.Sprintf("dfly:groups=%d,routers=2,nodes=1", sc.Nodes/2)
		if s, err := fabric.ParseSpec(sc.Fabric); err == nil {
			sc.Fabric = s.String()
		}
	}
	// Heterogeneous nodes: mixed per-node rail counts and asymmetric rail
	// bandwidths, biased rare so the bulk of the campaign stays on the
	// paper's homogeneous clusters.
	if sc.HCAs > 1 && rng.Float64() < 0.12 {
		sc.NodeHCAs = make([]int, sc.Nodes)
		for i := range sc.NodeHCAs {
			sc.NodeHCAs[i] = 1 + rng.Intn(sc.HCAs)
		}
	}
	if sc.HCAs > 1 && rng.Float64() < 0.12 {
		sc.RailBW = make([]float64, sc.HCAs)
		for i := range sc.RailBW {
			sc.RailBW[i] = []float64{1, 0.5, 0.75, 2}[rng.Intn(4)]
		}
	}
	if rng.Float64() < 0.4 {
		sc.Faults = faults.Random(1+rng.Int63n(1<<30), sc.Nodes, sc.HCAs, sim.Time(2*sim.Millisecond))
		sc.Blind = rng.Float64() < 0.3
	}
	return sc
}
