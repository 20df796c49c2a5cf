package verify

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"mha/internal/fabric"
	"mha/internal/faults"
	"mha/internal/kv"
	"mha/internal/netmodel"
	"mha/internal/topology"
)

// Scenario is one fully-specified verification run: a variant, a cluster,
// a payload, and the environment (jitter, faults, health-blindness). It
// round-trips through a one-line textual spec so a shrunk failure can be
// replayed with `mha verify -repro`.
type Scenario struct {
	// Alg names a registered Algorithm.
	Alg string
	// Cluster is the machine: its shape, layout, sockets and, when set,
	// per-node rail counts (mixed 1/2-HCA clusters) and per-rail
	// bandwidth scales (asymmetric rails). A spec line cannot render a
	// custom layout's Ranks table.
	topology.Cluster
	// Msg is the per-rank contribution in bytes (0 is legal).
	Msg int
	// Seed feeds the world's jitter RNG.
	Seed int64
	// Jitter is the OS/fabric noise amplitude (0 disables).
	Jitter float64
	// Blind runs the health-unaware transport baseline.
	Blind bool
	// Fabric is an internal/fabric spec ("" or "flat" means the default
	// flat fabric), putting the run's inter-node traffic on shared
	// fat-tree or dragonfly links.
	Fabric string
	// Faults degrades the rails over the run; nil means healthy.
	Faults *faults.Schedule
}

// FabricSpec parses the scenario's fabric field (nil when flat).
func (sc Scenario) FabricSpec() (*fabric.Spec, error) {
	if sc.Fabric == "" {
		return nil, nil
	}
	s, err := fabric.ParseSpec(sc.Fabric)
	if err != nil {
		return nil, err
	}
	if s.Kind == fabric.Flat {
		return nil, nil
	}
	return &s, nil
}

// Params returns the scenario's cost model: the Thor calibration (NUMA
// variant when the cluster has socket structure) with the scenario's
// jitter.
func (sc Scenario) Params() *netmodel.Params {
	var prm netmodel.Params
	if sc.Sockets > 1 {
		prm = *netmodel.NumaThor()
	} else {
		prm = *netmodel.Thor()
	}
	prm.Jitter = sc.Jitter
	return &prm
}

// MaxScenarioRanks caps a scenario's world: Validate, and so ParseSpec,
// refuses a larger one, and Campaign a larger Options.MaxRanks. It is the
// paper's largest world.
const MaxScenarioRanks = 1024

// Validate reports why the scenario is not runnable, or nil.
func (sc Scenario) Validate() error {
	alg, ok := ByName(sc.Alg)
	if !ok {
		return fmt.Errorf("verify: unknown algorithm %q", sc.Alg)
	}
	if err := sc.Cluster.Validate(); err != nil {
		return err
	}
	if n := sc.Size(); n > MaxScenarioRanks {
		return fmt.Errorf("verify: %d ranks exceeds the %d-rank scenario limit", n, MaxScenarioRanks)
	}
	if !alg.Supports(sc.Cluster) {
		return fmt.Errorf("verify: %s does not support %v", sc.Alg, sc.Cluster)
	}
	if sc.Msg < 0 {
		return fmt.Errorf("verify: negative message size %d", sc.Msg)
	}
	if !(sc.Jitter >= 0 && sc.Jitter <= 1) { // NaN fails both
		return fmt.Errorf("verify: jitter %g outside [0, 1]", sc.Jitter)
	}
	if fs, err := sc.FabricSpec(); err != nil {
		return err
	} else if fs != nil {
		if err := fs.CheckNodes(sc.Nodes); err != nil {
			return err
		}
	}
	if sc.Faults.Len() > 0 {
		if err := sc.Faults.Check(sc.Nodes, sc.HCAs); err != nil {
			return err
		}
	}
	return nil
}

// Spec renders the scenario as the one-line format ParseSpec reads. The
// faults field is last and holds the schedule's own spec text with ';'
// joining lines, so the whole scenario stays a single shell-friendly line.
func (sc Scenario) Spec() string {
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s nodes=%d ppn=%d hcas=%d sockets=%d layout=%s msg=%d seed=%d jitter=%g blind=%d",
		sc.Alg, sc.Nodes, sc.PPN, sc.HCAs, sc.Sockets,
		strings.ToLower(sc.Layout.String()), sc.Msg, sc.Seed, sc.Jitter, b2i(sc.Blind))
	if sc.Fabric != "" && sc.Fabric != "flat" {
		fmt.Fprintf(&b, " fabric=%s", sc.Fabric)
	}
	if len(sc.NodeHCAs) > 0 {
		b.WriteString(" nodehcas=")
		b.WriteString(joinInts(sc.NodeHCAs))
	}
	if len(sc.RailBW) > 0 {
		b.WriteString(" railbw=")
		b.WriteString(joinFloats(sc.RailBW))
	}
	b.WriteString(" faults=")
	if sc.Faults.Len() > 0 {
		b.WriteString(strings.ReplaceAll(sc.Faults.String(), "\n", "; "))
	} else {
		b.WriteString("none")
	}
	return b.String()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// joinInts renders a "/"-separated int list (the nodehcas= value).
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, "/")
}

// joinFloats renders a "/"-separated float list (the railbw= value).
func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, "/")
}

// ParseSpec reads a line produced by Spec (the inverse, modulo
// whitespace). Unknown and repeated keys and empty values are errors;
// faults, if present, is the last key and takes the rest of the line.
// Every key has a sensible default (one node, one rank, one rail, block
// layout, empty message, healthy rails).
func ParseSpec(line string) (Scenario, error) {
	sc := Scenario{}
	line = strings.TrimSpace(line)
	faultText := ""
	if i := strings.Index(line, "faults="); i >= 0 {
		faultText = strings.TrimSpace(line[i+len("faults="):])
		line = line[:i]
	}
	set, err := kv.Parse(strings.Fields(line), "alg", "nodes", "ppn", "hcas", "sockets",
		"layout", "msg", "seed", "jitter", "blind", "fabric", "nodehcas", "railbw")
	if err != nil {
		return sc, fmt.Errorf("verify: %v", err)
	}
	sc.Alg = set.Str("alg", "")
	var errs [6]error
	sc.Cluster, errs[0] = topology.Decode(set, topology.Cluster{Nodes: 1, PPN: 1, HCAs: 1})
	sc.Msg, errs[1] = set.Int("msg", 0)
	sc.Seed, errs[2] = strconv.ParseInt(set.Str("seed", "1"), 10, 64)
	sc.Jitter, errs[3] = strconv.ParseFloat(set.Str("jitter", "0"), 64)
	switch v := set.Str("blind", "0"); v {
	case "0", "false":
	case "1", "true":
		sc.Blind = true
	default:
		errs[4] = fmt.Errorf("blind: want 0 or 1, have %q", v)
	}
	sc.Fabric, errs[5] = fabric.Canonical(set.Str("fabric", "flat"))
	if err := cmp.Or(errs[:]...); err != nil {
		return sc, fmt.Errorf("verify: %v", err)
	}
	if faultText != "" && faultText != "none" && faultText != "(healthy)" {
		sched, err := faults.Parse(strings.ReplaceAll(faultText, ";", "\n"))
		if err != nil {
			return sc, err
		}
		sc.Faults = sched
	}
	if sc.Alg == "" {
		return sc, fmt.Errorf("verify: spec is missing alg=")
	}
	return sc, sc.Validate()
}
