package verify

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"mha/internal/compose"
	"mha/internal/fabric"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/trace"
)

// Violation is one broken property of a scenario run.
type Violation struct {
	// Kind classifies the property: "spec" (unrunnable scenario), "run"
	// (deadlock or panic), "oracle" (wrong bytes), "invariant" (teardown
	// audit), "monotonic" (clock went backwards), "determinism" (two runs
	// of the same seed diverged).
	Kind string
	// Detail is a human-readable account.
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// image is compose.ExpectByte at salt 0 tabulated once per scenario, so
// the per-rank check is a block compare instead of a call per byte.
// ExpectByte stays the written contract: it names the first wrong byte of
// a block that compares unequal, and TestImageMatchesSpec holds the table
// to it.
type image struct {
	coll compose.Collective
	m    int
	// pat[r] is rank r's send buffer, PatternByte(0, r, 0..sendLen); rows
	// overlap in memory and are read-only.
	pat [][]byte
	// sum is the ByteSum fold of pat's rows (reduce family only).
	sum []byte
	// zero is one untouched block (gather only).
	zero []byte
}

func newImage(coll compose.Collective, n, m int) *image {
	sendLen, _ := compose.Geometry(coll, n, m)
	im := &image{coll: coll, m: m, pat: make([][]byte, n)}
	// PatternByte steps by the same odd amount per byte on every rank, so the
	// pattern has period 256 and rank r's row is rank 0's row entered at
	// the offset where r's first byte occurs: n windows into one sequence
	// instead of an n x sendLen table (32 MiB for a large alltoall).
	seq := make([]byte, 256+sendLen)
	for i := range seq[:256] {
		seq[i] = compose.PatternByte(0, 0, i)
	}
	repeat256(seq)
	for r := range im.pat {
		at := bytes.IndexByte(seq[:256], compose.PatternByte(0, r, 0))
		im.pat[r] = seq[at : at+sendLen : at+sendLen]
	}
	switch coll {
	case compose.ReduceScatter, compose.Allreduce:
		// The fold of n rows of period 256 has period 256 too.
		im.sum = make([]byte, sendLen)
		for i := range im.sum[:min(sendLen, 256)] {
			im.sum[i] = compose.SumByte(0, n, i)
		}
		repeat256(im.sum)
	case compose.Gather:
		im.zero = make([]byte, m)
	}
	return im
}

// repeat256 fills b from its first 256 bytes, one period of a pattern, by
// doubling the filled prefix with copy until b is full.
func repeat256(b []byte) {
	for k := 256; k < len(b); k *= 2 {
		copy(b[k:], b[:k])
	}
}

// want is the expected receive block blk at rank me — compose.ExpectByte(
// coll, 0, n, m, me, blk, 0..m) — as a slice into the shared tables.
func (im *image) want(me, blk int) []byte {
	m := im.m
	switch im.coll {
	case compose.Allgather:
		return im.pat[blk][:m]
	case compose.ReduceScatter:
		return im.sum[me*m : (me+1)*m]
	case compose.Alltoall:
		return im.pat[blk][me*m : (me+1)*m]
	case compose.Gather:
		if me != 0 {
			return im.zero
		}
		return im.pat[blk][:m]
	case compose.Scatter:
		return im.pat[0][me*m : (me+1)*m]
	case compose.Allreduce:
		return im.sum[blk*m : (blk+1)*m]
	case compose.Bcast:
		return im.pat[0][:m]
	default:
		panic("verify: no oracle for collective " + im.coll.String())
	}
}

// maxOracleReports caps per-run oracle output; one failing scenario can
// corrupt every block of every rank.
const maxOracleReports = 8

// RunResult is one execution of a scenario.
type RunResult struct {
	// Makespan is the virtual time the run finished at.
	Makespan sim.Time
	// Violations holds every broken property; empty means the run passed.
	Violations []Violation
}

// RunOnce executes the scenario with real payloads and full
// instrumentation: the differential oracle on every rank's receive
// buffer, the clock-advance watcher, and the teardown audit. Panics
// anywhere in the run (including world construction) become "run"
// violations. A non-nil rec records the run's events, for the caller to
// hash or compare; a rank's panic or a deadlock leaves the events recorded
// up to it. A non-nil s is installed as the engine's scheduler before any
// rank runs — internal/explore drives its schedules through it, sharing
// this oracle across the randomized campaign and the exhaustive explorer,
// and records no trace. It is Prepare, one Run and Release.
func RunOnce(sc Scenario, rec *trace.Recorder, s sim.Scheduler) RunResult {
	p := Prepare(sc)
	defer p.Release()
	return p.Run(rec, s)
}

// Prepared is a scenario made ready to run many times: what the scenario
// fixes is resolved once — the registry row, the cost model, the fabric
// spec, the buffer geometry, the oracle's image, every rank's arrays and
// a table of the world's PerWorld values (a schedule and its Index, a
// lowered plan) — and each Run builds only a new world on them, with its
// own engine, processes, resources, mailboxes, counters, gauges, comms
// and jitter RNG. Nothing a run does is carried into the next: the image
// and the table are read-only, and fill rewrites a rank's arrays in full.
// Check runs its two runs on one; the explorer one per (variant,
// placement). A Prepared belongs to one goroutine at a time.
type Prepared struct {
	sc     Scenario
	alg    Algorithm
	prm    *netmodel.Params
	fspec  *fabric.Spec
	shared *mpi.Shared
	spec   []Violation // why the scenario cannot run at all, or nil

	// img is the oracle's image and ranks every rank's send and receive
	// array, both made on the first run. Each rank keeps arrays of its
	// own: one slab for all of them cost more to set up than it saved.
	img     *image
	ranks   []rankBufs
	recvLen int
}

// Prepare resolves the scenario for Run. A scenario that names no
// registered variant or an unparsable fabric still prepares; each of its
// runs reports the "spec" violation.
func Prepare(sc Scenario) *Prepared {
	p := &Prepared{sc: sc}
	alg, ok := ByName(sc.Alg)
	if !ok {
		p.spec = []Violation{{Kind: "spec", Detail: "unknown algorithm " + sc.Alg}}
		return p
	}
	fspec, ferr := sc.FabricSpec()
	if ferr != nil {
		p.spec = []Violation{{Kind: "spec", Detail: ferr.Error()}}
		return p
	}
	p.alg, p.fspec, p.prm = alg, fspec, sc.Params()
	p.shared = mpi.NewShared(sc.Cluster)
	return p
}

// Release gives the ranks' arrays back to the store once no run of p will
// touch them again.
func (pr *Prepared) Release() { giveArrays(pr.ranks) }

// rankBufs is one rank's pair of arrays from the store, nil until the rank
// first runs. An array may be longer than its buffer (see takeArray).
type rankBufs struct{ send, recv []byte }

// fill readies a rank's buffers for a run and returns them: its pattern
// in the send buffer and zeros in the receive buffer, each exactly as
// long as Geometry says, with no capacity past its end. The arrays come
// from the store on the rank's first run holding whatever their last run
// left, so every run rewrites both in full.
func (rb *rankBufs) fill(pat []byte, recvLen int) (send, recv mpi.Buf) {
	if rb.send == nil {
		rb.send, rb.recv = takeArray(len(pat)), takeArray(recvLen)
	}
	s, r := rb.send[:len(pat):len(pat)], rb.recv[:recvLen:recvLen]
	copy(s, pat)
	clear(r)
	return mpi.Bytes(s), mpi.Bytes(r)
}

// Run executes the prepared scenario once, as RunOnce does, on a new
// world; the image and the ranks' arrays are made on the first run.
func (pr *Prepared) Run(rec *trace.Recorder, s sim.Scheduler) (res RunResult) {
	defer func() {
		if r := recover(); r != nil {
			res.Violations = append(res.Violations,
				Violation{Kind: "run", Detail: fmt.Sprintf("panic: %v", r)})
		}
	}()
	if pr.spec != nil {
		return RunResult{Violations: slices.Clone(pr.spec)}
	}
	sc, alg := &pr.sc, pr.alg
	w := mpi.New(mpi.Config{
		Topo: sc.Cluster, Params: pr.prm, Tracer: rec,
		Seed: sc.Seed, Faults: sc.Faults, FaultBlind: sc.Blind,
		Fabric: pr.fspec, Shared: pr.shared,
	})

	// Clock monotonicity: the engine must only ever advance, and each
	// advance must leave from exactly where the previous one arrived.
	var clockBad []string
	var lastTo sim.Time
	w.Engine().SetClockWatcher(func(from, to sim.Time) {
		switch {
		case to <= from:
			if len(clockBad) < maxOracleReports {
				clockBad = append(clockBad, fmt.Sprintf("advance %v -> %v", from, to))
			}
		case from < lastTo:
			if len(clockBad) < maxOracleReports {
				clockBad = append(clockBad, fmt.Sprintf("advance from %v after reaching %v", from, lastTo))
			}
		}
		lastTo = to
	})
	w.Engine().SetScheduler(s)

	n := sc.Size()
	m := sc.Msg
	// The ranks are coroutines of Run's goroutine, so they append in turn.
	var oracle []string
	report := func(s string) {
		if len(oracle) < maxOracleReports {
			oracle = append(oracle, s)
		}
	}
	if pr.img == nil {
		_, pr.recvLen = compose.Geometry(alg.Coll, n, m)
		pr.img, pr.ranks = newImage(alg.Coll, n, m), make([]rankBufs, n)
	}
	img, ranks, recvLen := pr.img, pr.ranks, pr.recvLen
	err := w.Run(func(p *mpi.Proc) {
		me := p.Rank()
		send, recv := ranks[me].fill(img.pat[me], recvLen)
		alg.Run(p, w, send, recv)
		data := recv.Data()
		for blk := 0; m > 0 && blk*m < len(data); blk++ {
			got := data[blk*m : (blk+1)*m]
			if bytes.Equal(got, img.want(me, blk)) {
				continue
			}
			for i, b := range got {
				if want := compose.ExpectByte(alg.Coll, 0, n, m, me, blk, i); b != want {
					report(fmt.Sprintf("rank %d: block %d byte %d = %#02x, want %#02x",
						me, blk, i, b, want))
					break
				}
			}
		}
		if !bytes.Equal(send.Data(), img.pat[me]) {
			for i, b := range send.Data() {
				if b != compose.PatternByte(0, me, i) {
					report(fmt.Sprintf("rank %d: send buffer clobbered at byte %d", me, i))
					break
				}
			}
		}
	})
	if err != nil {
		res.Violations = append(res.Violations, Violation{Kind: "run", Detail: err.Error()})
	} else if terr := w.VerifyTeardown(); terr != nil {
		res.Violations = append(res.Violations, Violation{Kind: "invariant", Detail: terr.Error()})
	}
	for _, s := range clockBad {
		res.Violations = append(res.Violations, Violation{Kind: "monotonic", Detail: s})
	}
	for _, s := range oracle {
		res.Violations = append(res.Violations, Violation{Kind: "oracle", Detail: s})
	}
	res.Makespan = w.Engine().Stats().Now
	return res
}

// Check verifies one scenario completely: it validates the spec, executes
// it twice on one Prepared, and returns every violation found — the first
// run's, then any the second run alone produced (prefixed "second run: "),
// then a "determinism" violation when the two identically-seeded runs
// record different event sequences (in insertion order, naming the first
// event that differs) or makespans. An empty slice means the scenario passed.
func Check(sc Scenario) []Violation {
	if err := sc.Validate(); err != nil {
		return []Violation{{Kind: "spec", Detail: err.Error()}}
	}
	p := Prepare(sc)
	rec1, rec2 := trace.New(), trace.New()
	r1 := p.Run(rec1, nil)
	r2 := p.Run(rec2, nil)
	p.Release()
	out := r1.Violations
	for _, v := range r2.Violations {
		if !slices.ContainsFunc(r1.Violations, func(v1 Violation) bool { return headline(v1) == headline(v) }) {
			out = append(out, Violation{Kind: v.Kind, Detail: "second run: " + v.Detail})
		}
	}
	if at, e1, e2 := rec1.Diff(rec2); at >= 0 {
		out = append(out, Violation{Kind: "determinism",
			Detail: fmt.Sprintf("event %d is %s vs %s across identical runs", at, eventText(e1), eventText(e2))})
	} else if r1.Makespan != r2.Makespan {
		out = append(out, Violation{Kind: "determinism",
			Detail: fmt.Sprintf("makespan %v vs %v across identical runs", r1.Makespan, r2.Makespan)})
	}
	return out
}

// eventText renders one side of a determinism report: the event, or that
// the run recorded none at that index.
func eventText(e *trace.Event) string {
	if e == nil {
		return "no event"
	}
	return fmt.Sprintf("%+v", *e)
}

// headline is what identifies a violation across two runs of one
// scenario: its kind and the first line of its detail. A panic report
// carries a goroutine stack after that line, which legitimately differs.
func headline(v Violation) string {
	first, _, _ := strings.Cut(v.Detail, "\n")
	return v.Kind + ": " + first
}
