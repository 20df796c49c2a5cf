package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mha/internal/topology"
)

// The serialized forms. Text is line-oriented, mirroring the fault-
// schedule spec language of internal/faults:
//
//	schedule ring nodes=2 ppn=2 hcas=2 layout=block msg=1024
//	step
//	xfer src=0 dst=1 first=0 count=1
//	xfer src=2 dst=3 first=2 count=2 off=0 len=512 via=rail rail=1
//	copy rank=0 first=0 count=4
//
// Omitted off/len mean the whole range; omitted via means auto. Blank
// lines and '#' comments are skipped; a trailing "# ..." on any line is
// stripped. JSON (a leading '{') writes the same steps as integer tuples:
//
//	{"name":"ring","nodes":2,"ppn":2,"hcas":2,"layout":"block","msg":1024,"steps":[
//	{"xfers":[[0,1,0,1],[2,3,2,2,0,512,3,1,0]],"copies":[[0,0,4]]}]}
//
// [src,dst,first,count] is a whole-range, auto-transport, non-reducing
// transfer; any other is [src,dst,first,count,off,len,via,rail,red], via
// the Via ordinal, red 0 or 1. A copy is [rank,first,count].

// JSON renders the schedule in the tuple form, one step per line (the
// machine-readable counterpart of String, accepted back by Parse).
func (s *Schedule) JSON() ([]byte, error) {
	name, _ := json.Marshal(s.Name) // a string always marshals
	b := fmt.Appendf(nil, `{"name":%s,"nodes":%d,"ppn":%d,"hcas":%d,"layout":"%s","msg":%d`,
		name, s.Topo.Nodes, s.Topo.PPN, s.Topo.HCAs, s.Topo.Layout, s.Msg)
	if s.NumBlocks != 0 {
		b = fmt.Appendf(b, `,"blocks":%d`, s.NumBlocks)
	}
	b = append(b, `,"steps":[`...)
	for _, st := range s.Steps {
		b = append(b, "\n{"...)
		if len(st.Xfers) > 0 {
			b = append(b, `"xfers":[`...)
			for _, t := range st.Xfers {
				if t.Whole(s.Msg) && t.Via == ViaAuto && t.Rail == 0 && !t.Red {
					b = appendTuple(b, t.Src, t.Dst, t.First, t.Count)
					continue
				}
				red := 0
				if t.Red {
					red = 1
				}
				b = appendTuple(b, t.Src, t.Dst, t.First, t.Count, t.Off, t.Len, int(t.Via), t.Rail, red)
			}
			b = append(closeWith(b, ']'), ',')
		}
		if len(st.Copies) > 0 {
			b = append(b, `"copies":[`...)
			for _, cp := range st.Copies {
				b = appendTuple(b, cp.Rank, cp.First, cp.Count)
			}
			b = append(closeWith(b, ']'), ',')
		}
		b = append(closeWith(b, '}'), ',')
	}
	return append(closeWith(b, ']'), '}'), nil
}

// appendTuple appends v as a JSON array and a comma for closeWith to end.
func appendTuple(b []byte, v ...int) []byte {
	b = append(b, '[')
	for _, n := range v {
		b = append(strconv.AppendInt(b, int64(n), 10), ',')
	}
	return append(closeWith(b, ']'), ',')
}

// closeWith ends a list: its trailing comma, if any, becomes c.
func closeWith(b []byte, c byte) []byte { return append(bytes.TrimSuffix(b, []byte{','}), c) }

// Parse reads a schedule in the text form of String, or in the tuple form
// of JSON when the input starts with '{', and shape-validates it; run
// Analyze for the semantic checks.
func Parse(text string) (*Schedule, error) {
	if trimmed := strings.TrimSpace(text); strings.HasPrefix(trimmed, "{") {
		return parseJSON(trimmed)
	}
	return parseText(text)
}

func parseJSON(text string) (*Schedule, error) {
	dec := json.NewDecoder(strings.NewReader(text))
	dec.DisallowUnknownFields()
	var js struct {
		Name, Layout                  string
		Nodes, PPN, HCAs, Msg, Blocks int
		Steps                         []struct{ Xfers, Copies [][]json.RawMessage }
	}
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("sched: bad JSON: %v", err)
	}
	layout, err := parseLayout(js.Layout)
	if err != nil {
		return nil, fmt.Errorf("sched: %v", err)
	}
	s := &Schedule{Name: js.Name, Msg: js.Msg, NumBlocks: js.Blocks,
		Topo: topology.Cluster{Nodes: js.Nodes, PPN: js.PPN, HCAs: js.HCAs, Layout: layout}}
	if s.Name == "" {
		return nil, fmt.Errorf("sched: schedule has no name")
	}
	for si, jst := range js.Steps {
		st := Step{}
		for xi, raw := range jst.Xfers {
			v, err := tuple(raw, 4, 9)
			if err == nil && len(raw) == 9 && v[8] != 0 && v[8] != 1 {
				err = fmt.Errorf("red %d, want 0 or 1", v[8])
			}
			if err != nil {
				return nil, fmt.Errorf("sched: step %d xfer %d: %v", si, xi, err)
			}
			t := Transfer{Src: v[0], Dst: v[1], First: v[2], Count: v[3], Len: v[3] * s.Msg}
			if len(raw) == 9 {
				t.Off, t.Len, t.Via, t.Rail, t.Red = v[4], v[5], Via(v[6]), v[7], v[8] == 1
			}
			st.Xfers = append(st.Xfers, t)
		}
		for ci, raw := range jst.Copies {
			v, err := tuple(raw, 3)
			if err != nil {
				return nil, fmt.Errorf("sched: step %d copy %d: %v", si, ci, err)
			}
			st.Copies = append(st.Copies, Copy{Rank: v[0], First: v[1], Count: v[2]})
		}
		s.Steps = append(s.Steps, st)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// tuple reads a JSON array of integers whose length is one of arity.
func tuple(raw []json.RawMessage, arity ...int) (v [9]int, err error) {
	if !slices.Contains(arity, len(raw)) {
		return v, fmt.Errorf("arity %d, want one of %v", len(raw), arity)
	}
	for i, r := range raw {
		if v[i], err = strconv.Atoi(string(r)); err != nil {
			return v, fmt.Errorf("element %d: %s is not an integer", i, r)
		}
	}
	return v, nil
}

func parseLayout(s string) (topology.Layout, error) {
	switch s {
	case "block":
		return topology.Block, nil
	case "cyclic":
		return topology.Cyclic, nil
	default:
		return 0, fmt.Errorf("unknown layout %q", s)
	}
}

func parseText(text string) (*Schedule, error) {
	var s *Schedule
	inStep := false
	for ln, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		at := fmt.Sprintf("sched: line %d", ln+1)
		switch fields[0] {
		case "schedule":
			if s != nil {
				return nil, fmt.Errorf("%s: duplicate schedule header", at)
			}
			if len(fields) < 2 || strings.ContainsRune(fields[1], '=') {
				return nil, fmt.Errorf("%s: schedule header needs a name", at)
			}
			kv, err := keyvals(fields[2:], "nodes", "ppn", "hcas", "layout", "msg", "blocks")
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			layout, err := parseLayout(kv.str("layout", "block"))
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			nodes, err1 := kv.num("nodes", -1)
			ppn, err2 := kv.num("ppn", -1)
			hcas, err3 := kv.num("hcas", 1)
			msg, err4 := kv.num("msg", -1)
			blocks, err5 := kv.num("blocks", 0)
			for _, err := range []error{err1, err2, err3, err4, err5} {
				if err != nil {
					return nil, fmt.Errorf("%s: %v", at, err)
				}
			}
			s = &Schedule{
				Name:      fields[1],
				Topo:      topology.Cluster{Nodes: nodes, PPN: ppn, HCAs: hcas, Layout: layout},
				Msg:       msg,
				NumBlocks: blocks,
			}
		case "step":
			if s == nil {
				return nil, fmt.Errorf("%s: step before schedule header", at)
			}
			if len(fields) != 1 {
				return nil, fmt.Errorf("%s: step takes no arguments", at)
			}
			s.Steps = append(s.Steps, Step{})
			inStep = true
		case "xfer":
			if !inStep {
				return nil, fmt.Errorf("%s: xfer outside a step", at)
			}
			kv, err := keyvals(fields[1:], "src", "dst", "first", "count", "off", "len", "via", "rail", "red")
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			t, red := Transfer{}, 0
			var errs [8]error
			t.Src, errs[0] = kv.num("src", -1)
			t.Dst, errs[1] = kv.num("dst", -1)
			t.First, errs[2] = kv.num("first", -1)
			t.Count, errs[3] = kv.num("count", -1)
			t.Off, errs[4] = kv.num("off", 0)
			t.Len, errs[5] = kv.num("len", t.Count*s.Msg)
			t.Rail, errs[6] = kv.num("rail", 0)
			red, errs[7] = kv.num("red", 0)
			for _, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("%s: %v", at, err)
				}
			}
			if kv.has("off") != kv.has("len") {
				return nil, fmt.Errorf("%s: off and len must appear together", at)
			}
			if t.Via, err = parseVia(kv.str("via", "auto")); err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			t.Red = red != 0
			st := &s.Steps[len(s.Steps)-1]
			st.Xfers = append(st.Xfers, t)
		case "copy":
			if !inStep {
				return nil, fmt.Errorf("%s: copy outside a step", at)
			}
			kv, err := keyvals(fields[1:], "rank", "first", "count")
			if err != nil {
				return nil, fmt.Errorf("%s: %v", at, err)
			}
			cp := Copy{}
			var errs [3]error
			cp.Rank, errs[0] = kv.num("rank", -1)
			cp.First, errs[1] = kv.num("first", -1)
			cp.Count, errs[2] = kv.num("count", -1)
			for _, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("%s: %v", at, err)
				}
			}
			st := &s.Steps[len(s.Steps)-1]
			st.Copies = append(st.Copies, cp)
		default:
			return nil, fmt.Errorf("%s: unknown directive %q", at, fields[0])
		}
	}
	if s == nil {
		return nil, fmt.Errorf("sched: empty input")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// kvset holds the key=value fields of one directive line.
type kvset map[string]string

// keyvals splits "k=v" fields, rejecting unknown keys and duplicates.
func keyvals(fields []string, allowed ...string) (kvset, error) {
	kv := kvset{}
	for _, f := range fields {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("malformed field %q (want key=value)", f)
		}
		k, v := f[:eq], f[eq+1:]
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("unknown key %q", k)
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		kv[k] = v
	}
	return kv, nil
}

func (kv kvset) has(k string) bool { return kv[k] != "" }

func (kv kvset) str(k, def string) string {
	if v, ok := kv[k]; ok {
		return v
	}
	return def
}

// num parses an integer value; def < 0 with the key present is fine, a
// def of -1 paired with an absent required key surfaces later as a
// Validate range error.
func (kv kvset) num(k string, def int) (int, error) {
	v, ok := kv[k]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", k, v)
	}
	return n, nil
}
