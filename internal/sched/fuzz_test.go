package sched

import (
	"bytes"
	"slices"
	"testing"
	"unicode/utf8"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

// FuzzParseSchedule drives the schedule parser (text and JSON forms)
// with arbitrary input. Properties: Parse never panics; whatever it
// accepts validates, renders via String() and via JSON() in forms Parse
// accepts again, each render is a fixed point, the analyzer can process
// small accepted schedules, healthy or with a rail degraded, without
// panicking, and the interpreter's per-rank lists are each rank's
// transfers in step order (see checkIndex).
func FuzzParseSchedule(f *testing.F) {
	valid := NewBuilder("seedling", topology.New(2, 2, 2), 64)
	valid.Step()
	valid.Send(0, 1, 0).Send(2, 3, 2)
	valid.Step()
	valid.RailPiece(0, 2, 0, 2, 0, 64, 0).RailPiece(2, 0, 2, 2, 0, 64, 1)
	seedSched := valid.MustBuild()
	seedJSON, _ := seedSched.JSON()
	for _, seed := range []string{
		seedSched.String(),
		string(seedJSON),
		"schedule tiny nodes=1 ppn=2 msg=4\nstep\nxfer src=0 dst=1 first=0 count=1\nxfer src=1 dst=0 first=1 count=1\n",
		"schedule z nodes=1 ppn=2 msg=0\nstep\nxfer src=0 dst=1 first=0 count=1 via=pull\ncopy rank=0 first=0 count=1\n",
		"# comment\n\nschedule c nodes=2 ppn=1 hcas=2 layout=block msg=8\nstep\nxfer src=0 dst=1 first=0 count=1 via=rail rail=1\n",
		"schedule cyc nodes=3 ppn=2 layout=cyclic msg=7\nstep\nxfer src=0 dst=3 first=0 count=1 via=hca\n",
		"schedule bad nodes=0 ppn=0 msg=-1\n",
		"schedule x nodes=1 ppn=2 msg=4\nstep\nxfer src=0 dst=0 first=0 count=1\n",
		"schedule x nodes=1 ppn=2 msg=4\nxfer src=0 dst=1 first=0 count=1\n",
		"schedule x nodes=99999999 ppn=99999999 msg=99999999999\n",
		"schedule x nodes=1 ppn=2 msg=4 msg=5\n",
		"schedule wide nodes=2 ppn=1 hcas=40000 msg=8\nstep\nxfer src=0 dst=1 first=0 count=1 via=rail rail=39999\n",
		"schedule tri nodes=2 ppn=2 hcas=3 msg=300000\nstep\nxfer src=0 dst=2 first=0 count=1 via=hca\nxfer src=1 dst=3 first=1 count=1 via=rail rail=2\n",
		"step\n",
		"{",
		tupleJSON(`{"xfers":[[0,1,0,1]]}`),
		`{"name":"j","nodes":1,"ppn":2,"hcas":1,"layout":"spiral","msg":4,"steps":[]}`,
		// Long forms: a reduction, a pinned striped pair, a pull and a copy.
		tupleJSON(`{"xfers":[[0,1,0,1,0,4,0,0,1]]},{"xfers":[[1,0,0,2,0,4,1,0,0]],"copies":[[1,0,2]]}`),
		`{"name":"p","nodes":2,"ppn":1,"hcas":2,"layout":"cyclic","msg":8,"blocks":2,"steps":[
{"xfers":[[0,1,0,1,0,4,3,0,0],[0,1,0,1,4,4,3,1,0],[1,0,1,1,0,8,2,0,0]]}]}`,
		// Malformed: arity, non-integers, flags and ordinals out of range,
		// negatives, and the object form the tuples replaced.
		tupleJSON(`{"xfers":[[0,1,0]]}`),
		tupleJSON(`{"xfers":[[0,1,0,1,0]]}`),
		tupleJSON(`{"xfers":[[0,1,0,1.5]]}`),
		tupleJSON(`{"xfers":[[0,"1",0,1]]}`),
		tupleJSON(`{"xfers":[[0,1,0,1,0,4,0,0,2]]}`),
		tupleJSON(`{"xfers":[[0,1,0,1,0,4,9,0,0]]}`),
		tupleJSON(`{"xfers":[[-1,1,0,1],[0,1,0,1,-4,4,-1,-1,-1]],"copies":[[-1,0,1]]}`),
		tupleJSON(`{"copies":[[0,0]]}`),
		tupleJSON(`{"xfers":[{"src":0,"dst":1,"first":0,"count":1}]}`),
		// Runs: a short and a long one that wrap their moduli, one over
		// an explicit block space, and malformed ones (too short, past
		// the cap, a huge length, strides negative or at their modulus).
		`{"name":"r","nodes":2,"ppn":2,"hcas":2,"layout":"block","msg":8,"steps":[
{"xfers":[[4,0,1,0,1,1,1,1]]},{"xfers":[[2,0,2,0,2,0,8,3,1,0,2,2,2],[3,1,0,1,1,0,8,0,0,1,1,1,1]]}]}`,
		`{"name":"b","nodes":1,"ppn":3,"hcas":1,"layout":"block","msg":4,"blocks":9,"steps":[
{"xfers":[[6,0,1,0,1,1,1,4]],"copies":[[0,0,9]]}]}`,
		tupleJSON(`{"xfers":[[1,0,1,0,1,1,1,1]]}`),
		tupleJSON(`{"xfers":[[129,0,1,0,1,0,0,0]]}`),
		tupleJSON(`{"xfers":[[9223372036854775807,0,1,0,1,1,1,1]]}`),
		tupleJSON(`{"xfers":[[2,0,1,0,1,-1,1,1],[2,0,1,0,1,0,4,0,0,0,1,2,1]]}`),
	} {
		f.Add(seed)
	}
	prm := netmodel.Thor()
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return // rejected input is fine; not panicking is the property
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a schedule Validate rejects: %v\ninput: %q", err, text)
		}
		rendered := s.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("String() output does not re-parse: %v\ninput: %q\nrendered:\n%s", err, text, rendered)
		}
		if s2.String() != rendered {
			t.Fatalf("String/Parse not a fixed point:\nfirst:\n%s\nsecond:\n%s", rendered, s2.String())
		}
		if s2.NumTransfers() != s.NumTransfers() {
			t.Fatalf("round trip changed transfer count: %d -> %d", s.NumTransfers(), s2.NumTransfers())
		}
		js, err := s.JSON()
		if err != nil {
			t.Fatalf("JSON() fails on an accepted schedule: %v\ninput: %q", err, text)
		}
		s3, err := Parse(string(js))
		if err != nil {
			t.Fatalf("JSON() output does not re-parse: %v\ninput: %q\nrendered:\n%s", err, text, js)
		}
		if js3, _ := s3.JSON(); !bytes.Equal(js3, js) {
			t.Fatalf("JSON/Parse not a fixed point:\nfirst:\n%s\nsecond:\n%s", js, js3)
		}
		// JSON replaces a name's invalid UTF-8; everything else survives.
		if utf8.ValidString(s.Name) && s3.String() != rendered {
			t.Fatalf("JSON round trip changed the schedule:\nwant:\n%s\ngot:\n%s", rendered, s3)
		}
		// The analyzer must never panic on a validated schedule — its
		// per-step tables are indexed by the parsed nodes, hcas and rail —
		// healthy or degraded; keep the work bounded so the fuzzer spends
		// its time in the parser.
		if s.Topo.Size() <= 64 && len(s.Steps) <= 32 && s.NumTransfers() <= 256 {
			checkIndex(t, s)
			_, _ = Analyze(s, prm)
			if H := s.Topo.HCAs; H <= 64 {
				// One rail dead (which one depends on the input) when there
				// is another to carry on, else the only rail at half rate.
				health := make([]float64, H)
				for r := range health {
					health[r] = 1
				}
				health[len(text)%H] = 0
				if H == 1 {
					health[0] = 0.5
				}
				_, _ = AnalyzeHealth(s, prm, health)
				_, _ = AnalyzeHealth(ApplyHealth(s, health), prm, health)
			}
		}
	})
}

// checkIndex holds NewIndex to its definition: rank r's list is the
// in-order filter of every step's transfers to those r sends or receives,
// each tagged with its step and with how many transfers of its ordered
// pair precede it in the step.
func checkIndex(t *testing.T, s *Schedule) {
	ix := NewIndex(s)
	for r := 0; r < s.Topo.Size(); r++ {
		var want []xferRef
		for si, st := range s.Steps {
			for xi, x := range st.Xfers {
				if x.Src != r && x.Dst != r {
					continue
				}
				q := 0
				for _, y := range st.Xfers[:xi] {
					if y.Src == x.Src && y.Dst == x.Dst {
						q++
					}
				}
				want = append(want, xferRef{xi: int32(xi), tag: int32(si<<7 | q)})
			}
		}
		if got := ix.own(r); !slices.Equal(got, want) {
			t.Fatalf("rank %d: index lists %v, want %v\n%s", r, got, want, s)
		}
	}
}
