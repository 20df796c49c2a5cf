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
	"unicode"

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
//	{"xfers":[[0,1,0,1],[2,3,2,2,0,512,3,1,0]],"copies":[[0,0,4]]},
//	{"xfers":[[4,0,1,0,1,1,1,1]]}]}
//
// [src,dst,first,count] is a whole-range, auto-transport, non-reducing
// transfer; any other is [src,dst,first,count,off,len,via,rail,red], via
// the Via ordinal, red 0 or 1. A copy is [rank,first,count].
//
// A run of k >= 2 consecutive transfers of a step that differ only in
// src, dst and first, each by a fixed stride, is one tuple: the first
// transfer's fields after k and the three strides after them,
// [k,src,dst,first,count,dsrc,ddst,dfirst] or
// [k,src,dst,first,count,off,len,via,rail,red,dsrc,ddst,dfirst]. Transfer
// j of the run has src+j*dsrc and dst+j*ddst modulo the rank count and
// first+j*dfirst modulo the block space; each stride lies in [0, its
// modulus), so a run has one spelling. The second step above is the
// ring's 0->1, 1->2, 2->3, 3->0, each forwarding its source's block. The
// encoder writes every maximal run, split at runCap, and Parse expands
// runs in order, so the transfers are exactly those encoded.

// JSON renders the schedule in the tuple form, one step per line (the
// machine-readable counterpart of String, accepted back by Parse).
func (s *Schedule) JSON() ([]byte, error) {
	return s.appendJSON(nil, "\n"), nil
}

// AppendJSON appends the tuple form to b with no whitespace: JSON without
// its line breaks, byte for byte what encoding/json makes of JSON when it
// embeds it compacted.
func (s *Schedule) AppendJSON(b []byte) []byte {
	return s.appendJSON(b, "")
}

// appendJSON appends the tuple form, with nl before each step.
func (s *Schedule) appendJSON(b []byte, nl string) []byte {
	// A string always marshals, HTML-escaped. Marshal writes invalid
	// UTF-8 as the escape \ufffd but a valid U+FFFD as itself, so replace
	// first, or a reparsed name would render differently.
	name, _ := json.Marshal(strings.ToValidUTF8(s.Name, "\uFFFD"))
	b = fmt.Appendf(b, `{"name":%s,"nodes":%d,"ppn":%d,"hcas":%d,"layout":"%s","msg":%d`,
		name, s.Topo.Nodes, s.Topo.PPN, s.Topo.HCAs, s.Topo.Layout, s.Msg)
	if s.NumBlocks != 0 {
		b = fmt.Appendf(b, `,"blocks":%d`, s.NumBlocks)
	}
	b = append(b, `,"steps":[`...)
	for _, st := range s.Steps {
		b = append(append(b, nl...), '{')
		if len(st.Xfers) > 0 {
			b = append(b, `"xfers":[`...)
			b = append(closeWith(s.appendXfers(b, st.Xfers), ']'), ',')
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
	return append(closeWith(b, ']'), '}')
}

// appendXfers appends a step's transfers as tuples, each maximal run as
// one.
func (s *Schedule) appendXfers(b []byte, xs []Transfer) []byte {
	n, nb, limit := s.Topo.Size(), s.Blocks(), s.runCap()
	for i := 0; i < len(xs); {
		t, k := xs[i], 1
		var d stride
		if i+1 < len(xs) && n > 0 && nb > 0 {
			next := xs[i+1]
			d = stride{mod(next.Src-t.Src, n), mod(next.Dst-t.Dst, n), mod(next.First-t.First, nb)}
			for k < limit && i+k < len(xs) && d.next(xs[i+k-1], n, nb) == xs[i+k] {
				k++
			}
		}
		var v [13]int
		w := v[:0]
		if k > 1 {
			w = append(w, k)
		}
		w = append(w, t.Src, t.Dst, t.First, t.Count)
		if !t.Whole(s.Msg) || t.Via != ViaAuto || t.Rail != 0 || t.Red {
			red := 0
			if t.Red {
				red = 1
			}
			w = append(w, t.Off, t.Len, int(t.Via), t.Rail, red)
		}
		if k > 1 {
			w = append(w, d[:]...)
		}
		b = appendTuple(b, w...)
		i += k
	}
	return b
}

// stride is a run's step in src, dst and first.
type stride [3]int

// next returns the transfer after t in a run of strides d over n ranks
// and nb blocks. With t's fields in range and d's strides below their
// moduli, one subtraction wraps each.
func (d stride) next(t Transfer, n, nb int) Transfer {
	t.Src, t.Dst, t.First = t.Src+d[0], t.Dst+d[1], t.First+d[2]
	if t.Src >= n {
		t.Src -= n
	}
	if t.Dst >= n {
		t.Dst -= n
	}
	if t.First >= nb {
		t.First -= nb
	}
	return t
}

// mod is v modulo m, in [0, m).
func mod(v, m int) int { return (v%m + m) % m }

// runCap is the longest run a tuple may hold: the rank count, or the
// per-pair limit if that is larger. The encoder splits a longer run;
// Parse refuses one before expanding it.
func (s *Schedule) runCap() int { return max(s.Topo.Size(), maxPerPair) }

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
		Topo:  topology.Cluster{Nodes: js.Nodes, PPN: js.PPN, HCAs: js.HCAs, Layout: layout},
		Steps: make([]Step, len(js.Steps))}
	if s.Name == "" {
		return nil, fmt.Errorf("sched: schedule has no name")
	}
	// The text form's header carries the name as one word.
	if strings.ContainsFunc(s.Name, unicode.IsSpace) || strings.ContainsAny(s.Name, "=#") {
		return nil, fmt.Errorf("sched: schedule name %q is not one word without '=' or '#'", s.Name)
	}
	// The rank count and block space bound a run; check them before one
	// is expanded.
	if err := s.validateHeader(); err != nil {
		return nil, err
	}
	for si, jst := range js.Steps {
		st := &s.Steps[si]
		for _, raw := range jst.Xfers {
			if st.Xfers, err = s.readXfers(st.Xfers, raw); err != nil {
				return nil, fmt.Errorf("sched: step %d xfer %d: %v", si, len(st.Xfers), err)
			}
		}
		for ci, raw := range jst.Copies {
			v, err := tuple(raw, 3)
			if err != nil {
				return nil, fmt.Errorf("sched: step %d copy %d: %v", si, ci, err)
			}
			st.Copies = append(st.Copies, Copy{Rank: v[0], First: v[1], Count: v[2]})
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// readXfers appends the transfers a tuple stands for to xs: one, or each
// of a run's. It refuses a run shorter than 2 or longer than runCap, or
// with a stride outside [0, its modulus), before expanding it, and
// returns xs as it was on any error.
func (s *Schedule) readXfers(xs []Transfer, raw []json.RawMessage) ([]Transfer, error) {
	v, err := tuple(raw, 4, 8, 9, 13)
	if err != nil {
		return xs, err
	}
	n, nb := s.Topo.Size(), s.Blocks()
	f, k, d := v[:len(raw)], 1, stride{}
	if len(f) == 8 || len(f) == 13 {
		k, d, f = f[0], stride(f[len(f)-3:]), f[1:len(f)-3]
		if k < 2 || k > s.runCap() {
			return xs, fmt.Errorf("run length %d, want 2 to %d", k, s.runCap())
		}
		for i, m := range [3]int{n, n, nb} {
			if d[i] < 0 || d[i] >= m {
				return xs, fmt.Errorf("%s stride %d outside [0,%d)", [3]string{"src", "dst", "first"}[i], d[i], m)
			}
		}
	}
	t := Transfer{Src: f[0], Dst: f[1], First: f[2], Count: f[3], Len: f[3] * s.Msg}
	if len(f) == 9 {
		if f[8] != 0 && f[8] != 1 {
			return xs, fmt.Errorf("red %d, want 0 or 1", f[8])
		}
		t.Off, t.Len, t.Via, t.Rail, t.Red = f[4], f[5], Via(f[6]), f[7], f[8] == 1
	}
	xs = append(xs, t)
	for range k - 1 {
		t = d.next(t, n, nb)
		xs = append(xs, t)
	}
	return xs, nil
}

// tuple reads a JSON array of integers whose length is one of arity.
func tuple(raw []json.RawMessage, arity ...int) (v [13]int, err error) {
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
