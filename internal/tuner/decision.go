package tuner

import (
	"encoding/json"
	"fmt"

	"mha/internal/netmodel"
	"mha/internal/sched"
)

// Decision is the service's answer to one canonical query: the chosen
// schedule plus the numbers that justified it. Its JSON form is the wire
// response and the persisted cache value, and it is byte-stable: the
// struct marshals field-by-field in declaration order, so the same
// Decision always renders to the same bytes — which is what lets a test
// diff a cache hit against a fresh cold synthesis.
type Decision struct {
	// Key is the cache key the decision is stored under.
	Key string `json:"key"`
	// Query is the canonical query (see Query.Canonical).
	Query Query `json:"query"`
	// Name is the winning schedule's name (its lowering/mutation lineage).
	Name string `json:"name"`
	// CostUS is the analyzer's health-aware alpha-beta prediction.
	CostUS float64 `json:"cost_us"`
	// MakespanUS is the final pick's makespan: simulated, or, for a
	// schedule the synthesizer proves to simulate at exactly its cost
	// (sched.Candidate.Exact), that cost. It is 0 when the analytic
	// margin pruned the simulation pass (see Pruned).
	MakespanUS float64 `json:"makespan_us,omitempty"`
	// Pruned records that the analytic margin made simulation unnecessary.
	Pruned bool `json:"pruned,omitempty"`
	// Source names what produced the decision: "synth", the daemon's
	// synthesizer, is the only producer.
	Source string `json:"source"`
	// Schedule is the winning schedule in the sched-IR JSON form, its
	// transfers and copies integer tuples (sched.Schedule.JSON); embedded
	// compact, it is most of a served body.
	Schedule json.RawMessage `json:"schedule"`
}

// Encode renders the canonical wire/persisted bytes, exactly what
// json.Marshal(d) gives. Marshal would re-validate and re-compact the
// schedule, most of the body. So when the schedule holds nothing Marshal
// would change (no whitespace, nothing it HTML-escapes), as every
// schedule the service renders (sched.Schedule.AppendJSON) or decodes
// from a body it wrote does, Encode marshals only the other fields and
// appends the schedule as it is, taking it to be one JSON value as a
// RawMessage promises. Any other schedule goes through Marshal.
//
//lint:pure persisted bytes must be a function of the decision alone
func (d *Decision) Encode() ([]byte, error) {
	if !embedsAsIs(d.Schedule) {
		return json.Marshal(d)
	}
	// Schedule is the last field, so head's bytes end in its null.
	head := *d
	head.Schedule = nil
	b, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	b = append(b[:len(b)-len("null}")], d.Schedule...)
	return append(b, '}'), nil
}

// embedsAsIs reports whether json.Marshal embeds the JSON value raw
// byte for byte: it compacts away whitespace and escapes <, >, & and
// U+2028/U+2029 (whose UTF-8 starts with 0xE2), and raw has none of them.
func embedsAsIs(raw json.RawMessage) bool {
	if len(raw) == 0 {
		return false
	}
	for _, c := range raw {
		switch c {
		case ' ', '\t', '\n', '\r', '<', '>', '&', 0xE2:
			return false
		}
	}
	return true
}

// DecodeDecision parses and fully re-verifies a decision — used when
// loading a persisted cache, where the file contents are not trusted:
// the query must canonicalize back to the stored key, the schedule must
// parse, match the query's machine and message size, and pass the
// health-aware analyzer invariants (completeness, hold, rail conflicts,
// no dead-rail pins), and the recorded cost must be what that analysis
// prices the schedule at. Anything less and a corrupt or stale cache file
// could serve a wrong schedule, or a wrong cost, forever.
func DecodeDecision(data []byte, prm *netmodel.Params) (*Decision, error) {
	var d Decision
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("tuner: bad decision: %v", err)
	}
	cq, key, err := d.Query.Canonical()
	if err != nil {
		return nil, fmt.Errorf("tuner: decision query invalid: %v", err)
	}
	if key != d.Key {
		return nil, fmt.Errorf("tuner: decision key %.12s does not match its query (want %.12s)", d.Key, key)
	}
	if !cq.equal(d.Query) {
		return nil, fmt.Errorf("tuner: decision query %v is not in canonical form (want %v)", d.Query, cq)
	}
	if d.Source == "" {
		return nil, fmt.Errorf("tuner: decision has no source")
	}
	s, err := sched.Parse(string(d.Schedule))
	if err != nil {
		return nil, fmt.Errorf("tuner: decision schedule: %v", err)
	}
	if !s.Topo.Equal(cq.Cluster()) || s.Msg != cq.Msg {
		return nil, fmt.Errorf("tuner: decision schedule is for %v msg=%d, query wants %v msg=%d",
			s.Topo, s.Msg, cq.Cluster(), cq.Msg)
	}
	rep, err := sched.AnalyzeHealth(s, prm, cq.Health)
	if err != nil {
		return nil, fmt.Errorf("tuner: decision schedule fails invariants: %v", err)
	}
	if c := rep.Cost.Micros(); d.CostUS != c {
		return nil, fmt.Errorf("tuner: decision cost %v us is stale: the analyzer prices its schedule at %v us", d.CostUS, c)
	}
	return &d, nil
}
