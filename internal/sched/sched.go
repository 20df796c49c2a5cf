// Package sched is the communication-schedule IR: an allgather written
// down as data instead of code. A Schedule is a sequence of steps, each a
// set of point-to-point transfers (src rank, dst rank, block range, byte
// window, transport/rail) plus intra-node staging copies. Transfers in
// one step run concurrently and read the pre-step state; their effects
// become visible in the next step.
//
// Representing the collective this way closes the loop the hand-written
// designs in internal/collectives and internal/core cannot: the same
// Schedule value can be
//
//   - checked statically for correctness (analyze.go: every rank ends
//     holding every block, nothing is forwarded before it is held, pinned
//     transfers never fight over a rail within a step) and priced on the
//     netmodel alpha-beta cost functions without running the simulator;
//   - executed on the internal/mpi runtime so real payload bytes move
//     (exec.go), which is how the sched-* variants registered with
//     internal/verify and the bench registry run;
//   - produced by lowering the existing ring, recursive-doubling, and
//     two-phase MHA designs (builders.go), serialized to a line-oriented
//     text or JSON form (parse.go), and searched over by the greedy/beam
//     synthesizer (synth.go).
package sched

import (
	"fmt"
	"strings"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

// Via selects the transport carrying one transfer.
type Via int

const (
	// ViaAuto uses the runtime's default policy: a CMA copy for an
	// on-node peer, the HCA policy (round-robin small, striped large)
	// across nodes.
	ViaAuto Via = iota
	// ViaPull is a receiver-driven intra-node copy: the source exposes
	// its buffer (zero-cost pointer handoff) and the destination pays the
	// CMA read. Valid only between ranks on the same node. This is how
	// leader-based distribution phases spread cost across the readers.
	ViaPull
	// ViaHCA forces the network adapters even for an on-node peer (the
	// MHA offload loopback), with the default rail policy.
	ViaHCA
	// ViaRail pins the transfer to the Rail field on both endpoints. A
	// step grants a pinned rail exclusively per (node, direction); the
	// analyzer rejects schedules where two pinned transfers collide.
	ViaRail
)

func (v Via) String() string {
	switch v {
	case ViaAuto:
		return "auto"
	case ViaPull:
		return "pull"
	case ViaHCA:
		return "hca"
	case ViaRail:
		return "rail"
	default:
		return fmt.Sprintf("Via(%d)", int(v))
	}
}

// parseVia resolves the textual transport name.
func parseVia(s string) (Via, error) {
	switch s {
	case "auto":
		return ViaAuto, nil
	case "pull":
		return ViaPull, nil
	case "hca":
		return ViaHCA, nil
	case "rail":
		return ViaRail, nil
	default:
		return 0, fmt.Errorf("unknown transport %q", s)
	}
}

// Transfer moves bytes of a contiguous block range from one rank to
// another. Blocks are identified by contributing world rank (block b is
// rank b's send buffer), so a range [First, First+Count) covers Count
// consecutive ranks' contributions — with the block layout, a whole
// node's contribution is one range, which is what lets phase-2 transfers
// stripe a node block as one large message instead of PPN small ones.
//
// Off and Len select a byte window within the range (range-local
// offsets): Off = 0, Len = Count*msg is the whole range. Partial windows
// express striping: several transfers in one step, each pinned to a
// different rail, covering disjoint windows of the same range.
type Transfer struct {
	Src, Dst     int // world ranks, Src != Dst
	First, Count int // block range [First, First+Count)
	Off, Len     int // byte window within the range
	Via          Via
	Rail         int // meaningful only when Via == ViaRail
	// Red folds the payload into the destination's copy (byte-wise
	// reduction) instead of overwriting it. Reducing transfers must carry
	// their whole range (partial folds are not well-defined) and cannot
	// be receiver-driven pulls. Plain allgather schedules never set it.
	Red bool
}

// Whole reports whether the transfer carries its full block range.
func (t Transfer) Whole(msg int) bool { return t.Off == 0 && t.Len == t.Count*msg }

// Copy charges a local staging memcpy of a block range on one rank (the
// shared-memory publish of a leader before its peers read, for example).
// It moves no inter-rank data; the analyzer and interpreter price it on
// the rank's CPU.
type Copy struct {
	Rank         int
	First, Count int
}

// Step is one round of the schedule: its transfers and copies run
// concurrently, all reading the state left by the previous step.
type Step struct {
	Xfers  []Transfer
	Copies []Copy
}

// Schedule is a complete collective plan for one (topology, message
// size) pair. Msg is the per-block payload in bytes. By default the
// block space equals the world size and the contract is the allgather's
// (rank r starts holding only block r and must end holding all of
// them); a schedule lowered from internal/compose may set NumBlocks to
// use a different block space and pair the schedule with a Goal
// describing who starts and ends with what (see AnalyzeGoalHealth).
type Schedule struct {
	Name string
	Topo topology.Cluster
	Msg  int
	// NumBlocks overrides the block-space size when > 0; 0 means the
	// classic allgather space (one block per rank).
	NumBlocks int
	Steps     []Step
}

// maxSteps bounds the step count so step indices fit the mpi.Tag step
// field next to the per-pair ordinal (9 + 7 bits).
const maxSteps = 512

// maxPerPair bounds same-step transfers between one (src, dst) pair.
const maxPerPair = 128

// MaxRanks and maxMsg bound the schedule's scale so byte arithmetic
// (Count*Msg) cannot overflow and hostile parsed inputs cannot demand
// absurd allocations downstream. A machine shape parsed for lowering
// (compose.ParseHierarchy) is held to MaxRanks too.
const (
	MaxRanks = 1 << 16
	maxMsg   = 1 << 32
)

// maxBlocks bounds an explicit block space (an alltoall's is the world
// size squared; anything far beyond that is a hostile input).
const maxBlocks = 1 << 20

// Blocks returns the size of the block space: NumBlocks when set, the
// world size (the allgather contract) otherwise.
func (s *Schedule) Blocks() int {
	if s.NumBlocks > 0 {
		return s.NumBlocks
	}
	return s.Topo.Size()
}

// NumTransfers counts the transfers across all steps.
func (s *Schedule) NumTransfers() int {
	n := 0
	for _, st := range s.Steps {
		n += len(st.Xfers)
	}
	return n
}

// Validate checks the schedule's shape: ranks and block ranges in
// bounds, byte windows inside their ranges, transports coherent (pull
// stays on-node, pinned rails exist), and the step/pair limits the
// interpreter's tag scheme requires. It does not check semantics — that
// is Analyze's job (hold tracking, rail conflicts, completeness).
//
// The first finding in (step, transfer, copy) order is the one reported.
// Every synthesis candidate passes through here, so the passing path
// formats nothing and allocates only for a step that could break the
// pair limit at all.
func (s *Schedule) Validate() error {
	if err := s.validateHeader(); err != nil {
		return err
	}
	n := s.Topo.Size()
	nb := s.Blocks()
	// sent[r] counts rank r's transfers in the current step. A pair can
	// only exceed maxPerPair in a step with more transfers than that, and
	// then only once its source alone has posted more: until a source
	// does, nothing is counted per pair.
	var sent []int32
	// nodeOf is rank -> node, made at the first pull: a pull must stay on
	// its node, and asking the topology per pull copies it twice.
	var nodeOf []int
	for si := range s.Steps {
		st := &s.Steps[si]
		crowded := len(st.Xfers) > maxPerPair
		if crowded {
			if sent == nil {
				sent = make([]int32, n)
			} else {
				clear(sent)
			}
		}
		overflow := -1 // index of the step's first transfer past the pair limit, once known
		for xi := range st.Xfers {
			t := &st.Xfers[xi]
			if t.Via == ViaPull && nodeOf == nil {
				nodeOf = make([]int, n)
				for r := range nodeOf {
					nodeOf[r] = s.Topo.NodeOf(r)
				}
			}
			if err := s.checkXfer(si, xi, t, n, nb, nodeOf); err != nil {
				return err
			}
			if !crowded {
				continue
			}
			if sent[t.Src]++; sent[t.Src] > maxPerPair && overflow < 0 {
				overflow = firstPairOverflow(st.Xfers)
			}
			if xi == overflow {
				return xferErr(si, xi, "more than %d transfers %d->%d in one step", maxPerPair, t.Src, t.Dst)
			}
		}
		for ci, cp := range st.Copies {
			if cp.Rank < 0 || cp.Rank >= n {
				return fmt.Errorf("sched: step %d copy %d: rank %d out of range", si, ci, cp.Rank)
			}
			if cp.Count < 1 || cp.First < 0 || cp.First+cp.Count > nb {
				return fmt.Errorf("sched: step %d copy %d: block range [%d,%d) out of [0,%d)", si, ci, cp.First, cp.First+cp.Count, nb)
			}
		}
	}
	return nil
}

// validateHeader is the part of Validate that reads no step but their
// count: the topology, message size, rank limit, step limit and block
// space.
func (s *Schedule) validateHeader() error {
	if err := s.Topo.Validate(); err != nil {
		return err
	}
	if s.Msg < 0 || s.Msg > maxMsg {
		return fmt.Errorf("sched: message size %d outside [0,%d]", s.Msg, maxMsg)
	}
	if s.Topo.Nodes > MaxRanks || s.Topo.PPN > MaxRanks || s.Topo.Size() > MaxRanks {
		return fmt.Errorf("sched: topology %v exceeds the %d-rank limit", s.Topo, MaxRanks)
	}
	if len(s.Steps) > maxSteps {
		return fmt.Errorf("sched: %d steps exceed the %d-step limit", len(s.Steps), maxSteps)
	}
	if s.NumBlocks < 0 || s.NumBlocks > maxBlocks {
		return fmt.Errorf("sched: block space %d outside [0,%d]", s.NumBlocks, maxBlocks)
	}
	return nil
}

// xferErr is a Validate finding on transfer xi of step si.
func xferErr(si, xi int, format string, args ...interface{}) error {
	return fmt.Errorf("sched: step %d xfer %d: %s", si, xi, fmt.Sprintf(format, args...))
}

// checkXfer is the per-transfer part of Validate: everything that can be
// said about t without looking at its neighbors. nodeOf is set when t is
// a pull.
func (s *Schedule) checkXfer(si, xi int, t *Transfer, n, nb int, nodeOf []int) error {
	switch {
	case t.Src < 0 || t.Src >= n || t.Dst < 0 || t.Dst >= n:
		return xferErr(si, xi, "rank out of range in %d->%d (size %d)", t.Src, t.Dst, n)
	case t.Src == t.Dst:
		return xferErr(si, xi, "self transfer on rank %d (use a copy)", t.Src)
	case t.Count < 1 || t.First < 0 || t.First+t.Count > nb:
		return xferErr(si, xi, "block range [%d,%d) out of [0,%d)", t.First, t.First+t.Count, nb)
	case t.Off < 0 || t.Len < 0 || t.Off+t.Len > t.Count*s.Msg:
		return xferErr(si, xi, "byte window [%d,%d) outside range of %d bytes", t.Off, t.Off+t.Len, t.Count*s.Msg)
	case s.Msg > 0 && t.Len == 0:
		return xferErr(si, xi, "empty byte window")
	case t.Via < ViaAuto || t.Via > ViaRail:
		return xferErr(si, xi, "unknown transport %d", int(t.Via))
	case t.Via == ViaRail && (t.Rail < 0 || t.Rail >= s.Topo.HCAs):
		return xferErr(si, xi, "rail %d out of range [0,%d)", t.Rail, s.Topo.HCAs)
	case t.Via != ViaRail && t.Rail != 0:
		return xferErr(si, xi, "rail %d set on a %s transfer", t.Rail, t.Via)
	case t.Via == ViaPull && nodeOf[t.Src] != nodeOf[t.Dst]:
		return xferErr(si, xi, "pull between ranks %d and %d on different nodes", t.Src, t.Dst)
	case t.Red && !t.Whole(s.Msg):
		return xferErr(si, xi, "reducing transfer carries a partial window")
	case t.Red && t.Via == ViaPull:
		return xferErr(si, xi, "reducing transfer cannot be a pull")
	}
	return nil
}

// firstPairOverflow returns the index of the first transfer of a step
// that is its (src, dst) pair's (maxPerPair+1)-th, or len(xs) if no pair
// exceeds the limit. Validate only calls it for a step in which one rank
// sends more than maxPerPair transfers, which no lowering does.
func firstPairOverflow(xs []Transfer) int {
	pair := map[[2]int]int{}
	for xi := range xs {
		k := [2]int{xs[xi].Src, xs[xi].Dst}
		if pair[k]++; pair[k] > maxPerPair {
			return xi
		}
	}
	return len(xs)
}

// String renders the canonical text form parsed by Parse: a header line,
// then "step" separators with one xfer/copy line each. Whole-range
// windows, the auto transport, and rail 0 on non-pinned transfers are
// omitted, so String(Parse(String(s))) is a fixed point.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %s nodes=%d ppn=%d hcas=%d layout=%s msg=%d",
		s.Name, s.Topo.Nodes, s.Topo.PPN, s.Topo.HCAs, s.Topo.Layout, s.Msg)
	if s.NumBlocks != 0 {
		fmt.Fprintf(&b, " blocks=%d", s.NumBlocks)
	}
	b.WriteByte('\n')
	for _, st := range s.Steps {
		b.WriteString("step\n")
		for _, t := range st.Xfers {
			fmt.Fprintf(&b, "xfer src=%d dst=%d first=%d count=%d", t.Src, t.Dst, t.First, t.Count)
			if !t.Whole(s.Msg) {
				fmt.Fprintf(&b, " off=%d len=%d", t.Off, t.Len)
			}
			if t.Via != ViaAuto {
				fmt.Fprintf(&b, " via=%s", t.Via)
			}
			if t.Via == ViaRail {
				fmt.Fprintf(&b, " rail=%d", t.Rail)
			}
			if t.Red {
				b.WriteString(" red=1")
			}
			b.WriteByte('\n')
		}
		for _, cp := range st.Copies {
			fmt.Fprintf(&b, "copy rank=%d first=%d count=%d\n", cp.Rank, cp.First, cp.Count)
		}
	}
	return b.String()
}

// Clone returns a deep copy (steps and their slices are independent).
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{Name: s.Name, Topo: s.Topo, Msg: s.Msg,
		NumBlocks: s.NumBlocks, Steps: make([]Step, len(s.Steps))}
	for i, st := range s.Steps {
		out.Steps[i] = Step{
			Xfers:  append([]Transfer(nil), st.Xfers...),
			Copies: append([]Copy(nil), st.Copies...),
		}
	}
	return out
}

// Builder accumulates a schedule step by step. Convenience emitters
// (Send, SendRange, Pull, RailPiece, ...) append to the current step;
// Step opens the next one. Build validates the result.
type Builder struct {
	s *Schedule
}

// NewBuilder starts an empty schedule for the given machine and message
// size. The first emitter call lands in step 0 automatically.
func NewBuilder(name string, topo topology.Cluster, msg int) *Builder {
	return &Builder{s: &Schedule{Name: name, Topo: topo, Msg: msg}}
}

// Blocks sets an explicit block-space size (see Schedule.NumBlocks).
// Call it before emitting transfers; lowerings for goal-based
// collectives whose block space is not one-per-rank need it.
func (b *Builder) Blocks(nb int) *Builder {
	b.s.NumBlocks = nb
	return b
}

// Step opens a new (initially empty) step. Its transfers get room for
// as many as the previous step's: lowerings emit steps of like size, and
// growing each from nothing by doubling is most of what building one
// allocates.
func (b *Builder) Step() *Builder {
	var xs []Transfer
	if n := len(b.s.Steps); n > 0 && len(b.s.Steps[n-1].Xfers) > 0 {
		xs = make([]Transfer, 0, len(b.s.Steps[n-1].Xfers))
	}
	b.s.Steps = append(b.s.Steps, Step{Xfers: xs})
	return b
}

func (b *Builder) cur() *Step {
	if len(b.s.Steps) == 0 {
		b.Step()
	}
	return &b.s.Steps[len(b.s.Steps)-1]
}

// Xfer appends a fully-specified transfer to the current step.
func (b *Builder) Xfer(t Transfer) *Builder {
	st := b.cur()
	st.Xfers = append(st.Xfers, t)
	return b
}

// Send emits one whole block over the default transport.
func (b *Builder) Send(src, dst, block int) *Builder {
	return b.SendRange(src, dst, block, 1)
}

// SendRange emits a whole block range over the default transport.
func (b *Builder) SendRange(src, dst, first, count int) *Builder {
	return b.Xfer(Transfer{Src: src, Dst: dst, First: first, Count: count,
		Len: count * b.s.Msg})
}

// SendHCA emits a whole block range forced through the adapters with the
// default rail policy (the offload-loopback transport).
func (b *Builder) SendHCA(src, dst, first, count int) *Builder {
	return b.Xfer(Transfer{Src: src, Dst: dst, First: first, Count: count,
		Len: count * b.s.Msg, Via: ViaHCA})
}

// SendRed emits a whole block range that folds into the destination's
// copy (default transport). See Transfer.Red.
func (b *Builder) SendRed(src, dst, first, count int) *Builder {
	return b.Xfer(Transfer{Src: src, Dst: dst, First: first, Count: count,
		Len: count * b.s.Msg, Red: true})
}

// SendRedHCA is SendRed forced through the adapters with the default
// rail policy (reductions cannot pin partial windows, so striping is
// the transport's business).
func (b *Builder) SendRedHCA(src, dst, first, count int) *Builder {
	return b.Xfer(Transfer{Src: src, Dst: dst, First: first, Count: count,
		Len: count * b.s.Msg, Via: ViaHCA, Red: true})
}

// Pull emits a receiver-driven whole-range copy from an on-node peer.
func (b *Builder) Pull(src, dst, first, count int) *Builder {
	return b.Xfer(Transfer{Src: src, Dst: dst, First: first, Count: count,
		Len: count * b.s.Msg, Via: ViaPull})
}

// RailPiece emits a byte window of a block range pinned to one rail.
func (b *Builder) RailPiece(src, dst, first, count, off, n, rail int) *Builder {
	return b.Xfer(Transfer{Src: src, Dst: dst, First: first, Count: count,
		Off: off, Len: n, Via: ViaRail, Rail: rail})
}

// Striped emits a whole block range split across every rail in pinned
// pieces (netmodel.AppendRailChunk sizing), or a single rail-0 transfer
// when the range is empty (zero-byte messages still synchronize).
func (b *Builder) Striped(src, dst, first, count, rails int) *Builder {
	total := count * b.s.Msg
	if total == 0 {
		return b.RailPiece(src, dst, first, count, 0, 0, 0)
	}
	var buf [16]int
	off := 0
	for r, piece := range netmodel.AppendRailChunk(buf[:0], total, rails) {
		if piece == 0 {
			continue
		}
		b.RailPiece(src, dst, first, count, off, piece, r)
		off += piece
	}
	return b
}

// Copy charges a local staging copy of a block range on one rank.
func (b *Builder) Copy(rank, first, count int) *Builder {
	st := b.cur()
	st.Copies = append(st.Copies, Copy{Rank: rank, First: first, Count: count})
	return b
}

// Build validates and returns the schedule.
func (b *Builder) Build() (*Schedule, error) {
	if err := b.s.Validate(); err != nil {
		return nil, err
	}
	return b.s, nil
}

// MustBuild is Build for the lowering constructors, whose inputs are
// generated: a validation failure is a bug, not bad user input.
func (b *Builder) MustBuild() *Schedule {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}
