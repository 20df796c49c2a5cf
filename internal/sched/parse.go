package sched

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mha/internal/kv"
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
	// A string always marshals. Marshal writes invalid UTF-8 as the
	// escape \ufffd but a valid U+FFFD as itself, so replace first, or
	// a reparsed name would render differently.
	name, _ := json.Marshal(strings.ToValidUTF8(s.Name, "\uFFFD"))
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
	layout, err := topology.ParseLayout(js.Layout)
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

func parseText(text string) (*Schedule, error) {
	var s *Schedule
	inStep := false
	directive := func(fields []string) error {
		switch fields[0] {
		case "schedule":
			if s != nil {
				return errors.New("duplicate schedule header")
			}
			if len(fields) < 2 || strings.ContainsRune(fields[1], '=') {
				return errors.New("schedule header needs a name")
			}
			set, err := kv.Parse(fields[2:], "nodes", "ppn", "hcas", "layout", "msg", "blocks")
			if err != nil {
				return err
			}
			topo, err1 := topology.Decode(set, topology.Cluster{Nodes: -1, PPN: -1, HCAs: 1})
			msg, err2 := set.Int("msg", -1)
			blocks, err3 := set.Int("blocks", 0)
			if err := cmp.Or(err1, err2, err3); err != nil {
				return err
			}
			s = &Schedule{Name: fields[1], Topo: topo, Msg: msg, NumBlocks: blocks}
		case "step":
			if s == nil {
				return errors.New("step before schedule header")
			}
			if len(fields) != 1 {
				return errors.New("step takes no arguments")
			}
			s.Steps = append(s.Steps, Step{})
			inStep = true
		case "xfer":
			if !inStep {
				return errors.New("xfer outside a step")
			}
			set, err := kv.Parse(fields[1:], "src", "dst", "first", "count", "off", "len", "via", "rail", "red")
			if err != nil {
				return err
			}
			t, red := Transfer{}, 0
			var errs [8]error
			t.Src, errs[0] = set.Int("src", -1)
			t.Dst, errs[1] = set.Int("dst", -1)
			t.First, errs[2] = set.Int("first", -1)
			t.Count, errs[3] = set.Int("count", -1)
			t.Off, errs[4] = set.Int("off", 0)
			t.Len, errs[5] = set.Int("len", t.Count*s.Msg)
			t.Rail, errs[6] = set.Int("rail", 0)
			red, errs[7] = set.Int("red", 0)
			if err := cmp.Or(errs[:]...); err != nil {
				return err
			}
			if set.Has("off") != set.Has("len") {
				return errors.New("off and len must appear together")
			}
			if t.Via, err = parseVia(set.Str("via", "auto")); err != nil {
				return err
			}
			t.Red = red != 0
			st := &s.Steps[len(s.Steps)-1]
			st.Xfers = append(st.Xfers, t)
		case "copy":
			if !inStep {
				return errors.New("copy outside a step")
			}
			set, err := kv.Parse(fields[1:], "rank", "first", "count")
			if err != nil {
				return err
			}
			cp := Copy{}
			var err1, err2, err3 error
			cp.Rank, err1 = set.Int("rank", -1)
			cp.First, err2 = set.Int("first", -1)
			cp.Count, err3 = set.Int("count", -1)
			if err := cmp.Or(err1, err2, err3); err != nil {
				return err
			}
			st := &s.Steps[len(s.Steps)-1]
			st.Copies = append(st.Copies, cp)
		default:
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		return nil
	}
	err := kv.Lines(text, func(ln int, fields []string) error {
		if err := directive(fields); err != nil {
			return fmt.Errorf("sched: line %d: %v", ln, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("sched: empty input")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
