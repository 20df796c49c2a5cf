// Package explore exhaustively verifies allgather variants on small
// worlds. Where internal/verify samples the scenario space at random,
// explore enumerates it: for a fixed world shape it visits every
// meaningfully distinct interleaving of same-virtual-time events (the
// only nondeterminism the deterministic engine abstracts away) and every
// single-rail-fault placement, checking the byte-level oracle and the
// teardown audits at every terminal state. Dynamic partial-order
// reduction over the engine's per-step dependency footprints keeps the
// visited-state count a small fraction of the raw interleaving space.
package explore

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"mha/internal/fabric"
	"mha/internal/faults"
	"mha/internal/kv"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/verify"
)

// MaxWorldRanks bounds the worlds the explorer accepts: exhaustive
// enumeration is only tractable (and only interesting) for small worlds.
const MaxWorldRanks = 8

// FaultWindow is the outage span of an injected single-rail Down fault.
// It is long enough to cover the first phase of every variant at the
// explorer's message sizes, so the fault actually intersects traffic.
const FaultWindow = 30 * sim.Time(sim.Microsecond)

// A Placement locates one injected rail fault. The zero value is NOT
// healthy; use NoFault.
type Placement struct {
	// Node and Rail locate the downed rail; Node == -1 means no fault.
	Node, Rail int
}

// NoFault is the healthy placement.
var NoFault = Placement{Node: -1, Rail: -1}

// Healthy reports whether the placement injects nothing.
func (pl Placement) Healthy() bool { return pl.Node < 0 }

func (pl Placement) String() string {
	if pl.Healthy() {
		return "none"
	}
	return fmt.Sprintf("node%d.rail%d", pl.Node, pl.Rail)
}

// parsePlacement reads the String form back.
func parsePlacement(s string) (Placement, error) {
	if s == "none" {
		return NoFault, nil
	}
	rest, ok := strings.CutPrefix(s, "node")
	if !ok {
		return NoFault, fmt.Errorf("bad fault %q (want none or nodeN.railR)", s)
	}
	ns, rs, ok := strings.Cut(rest, ".rail")
	if !ok {
		return NoFault, fmt.Errorf("bad fault %q (want none or nodeN.railR)", s)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return NoFault, fmt.Errorf("bad fault node in %q: %v", s, err)
	}
	r, err := strconv.Atoi(rs)
	if err != nil {
		return NoFault, fmt.Errorf("bad fault rail in %q: %v", s, err)
	}
	if n < 0 || r < 0 {
		return NoFault, fmt.Errorf("negative fault location %q", s)
	}
	return Placement{Node: n, Rail: r}, nil
}

// A Spec pins one explored execution: a variant, a world shape, a fault
// placement, and the schedule choices taken at successive decision
// points (each an index into that point's co-enabled event frontier;
// points beyond the list take the canonical lowest-seq event). It
// round-trips through a one-line text form, so a counterexample can be
// replayed with `mha explore -repro`.
type Spec struct {
	Alg                   string
	Nodes, PPN, HCAs, Msg int
	// Fabric is an internal/fabric spec ("" means flat); the explored
	// world's inter-node traffic then crosses shared fabric links.
	Fabric  string
	Fault   Placement
	Choices []int
}

// String renders the one-line form ParseSpec reads.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s nodes=%d ppn=%d hcas=%d msg=%d", s.Alg, s.Nodes, s.PPN, s.HCAs, s.Msg)
	if s.Fabric != "" {
		fmt.Fprintf(&b, " fabric=%s", s.Fabric)
	}
	fmt.Fprintf(&b, " fault=%s sched=", s.Fault)
	if len(s.Choices) == 0 {
		b.WriteString("canonical")
		return b.String()
	}
	for i, c := range s.Choices {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// ParseSpec reads a line produced by String (the inverse, modulo
// whitespace). Unknown and repeated keys and empty values are errors;
// every key except alg has a default (one node, one rank, one rail,
// empty message, healthy rails, canonical schedule).
func ParseSpec(line string) (Spec, error) {
	s := Spec{}
	set, err := kv.Parse(strings.Fields(line), "alg", "nodes", "ppn", "hcas", "msg", "fabric", "fault", "sched")
	if err != nil {
		return s, fmt.Errorf("explore: %v", err)
	}
	s.Alg = set.Str("alg", "")
	shape, err := topology.Decode(set, topology.Cluster{Nodes: 1, PPN: 1, HCAs: 1})
	s.Nodes, s.PPN, s.HCAs = shape.Nodes, shape.PPN, shape.HCAs
	errs := [5]error{err}
	s.Msg, errs[1] = set.Int("msg", 0)
	s.Fabric, errs[2] = fabric.Canonical(set.Str("fabric", "flat"))
	s.Fault, errs[3] = parsePlacement(set.Str("fault", "none"))
	if v := set.Str("sched", "canonical"); v != "canonical" {
		for _, part := range strings.Split(v, ".") {
			c, err := strconv.Atoi(part)
			if err != nil || c < 0 {
				errs[4] = fmt.Errorf("bad choice %q", part)
				break
			}
			s.Choices = append(s.Choices, c)
		}
	}
	if err := cmp.Or(errs[:]...); err != nil {
		return s, fmt.Errorf("explore: %v", err)
	}
	if s.Alg == "" {
		return s, fmt.Errorf("explore: spec is missing alg=")
	}
	return s, s.Validate()
}

// Validate reports why the spec is not explorable, or nil.
func (s Spec) Validate() error {
	if n := s.Nodes * s.PPN; n > MaxWorldRanks {
		return fmt.Errorf("explore: %d ranks exceeds the %d-rank exhaustive limit", n, MaxWorldRanks)
	}
	if len(s.Choices) > 100000 {
		return fmt.Errorf("explore: schedule with %d choices is implausible", len(s.Choices))
	}
	if !s.Fault.Healthy() && (s.Fault.Node >= s.Nodes || s.Fault.Rail >= s.HCAs) {
		return fmt.Errorf("explore: fault %s outside a %dx%d-rail cluster", s.Fault, s.Nodes, s.HCAs)
	}
	sc, err := s.scenario()
	if err != nil {
		return err
	}
	return sc.Validate()
}

// scenario maps the spec onto the verify harness's scenario form: block
// layout, seed 1, and — crucially — zero jitter. Jitter draws from a
// run-wide RNG shared by every rank, which would make every step depend
// on every other and defeat the partial-order reduction; the explorer
// covers scheduling nondeterminism exhaustively instead of sampling
// timing noise.
func (s Spec) scenario() (verify.Scenario, error) {
	sc := verify.Scenario{
		Alg: s.Alg, Cluster: topology.Cluster{Nodes: s.Nodes, PPN: s.PPN, HCAs: s.HCAs},
		Msg: s.Msg, Seed: 1, Fabric: s.Fabric,
	}
	if !s.Fault.Healthy() {
		sched, err := faults.New(faults.Fault{
			Kind: faults.Down, Node: s.Fault.Node, Rail: s.Fault.Rail, Until: FaultWindow,
		})
		if err != nil {
			return sc, err
		}
		sc.Faults = sched
	}
	return sc, nil
}
