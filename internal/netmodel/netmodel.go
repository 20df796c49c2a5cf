// Package netmodel holds the calibrated communication-cost parameters of
// the simulated cluster and the cost functions built from them. The
// parameter names follow Table 1 of the paper: startup terms alpha_X,
// bandwidths BW_X, the intra-node concurrency factor b, and the
// shared-memory congestion factor cg(M, readers).
//
// The default calibration (Thor) models the paper's testbed: the Thor
// cluster of the HPC Advisory Council — 32 nodes, dual-socket 16-core
// Broadwell, 2x ConnectX-6 HDR100 100 Gb/s HCAs per node. Numbers are
// chosen so the simulator reproduces the paper's Figures 1 and 3: an
// intra-node CMA bandwidth approximately equal to one HCA's (~12.5 GB/s),
// inter-node bandwidth doubling when the second rail stripes, and rail
// saturation (striping onset) at 16 KB.
package netmodel

import (
	"fmt"

	"mha/internal/sim"
)

// Params is the communication parameter set (Table 1 of the paper).
// All bandwidths are in bytes per second.
type Params struct {
	// AlphaHCA is the startup time per inter-node transfer (alpha_H).
	AlphaHCA sim.Duration
	// BWHCA is the bandwidth of one HCA rail (BW_H).
	BWHCA float64

	// AlphaCMA is the startup time per intra-node CMA transfer (alpha_C).
	AlphaCMA sim.Duration
	// BWCMA is the single-copy CMA bandwidth (BW_C).
	BWCMA float64

	// AlphaCopy is the startup cost of a local/shared-memory copy (alpha_L).
	AlphaCopy sim.Duration
	// BWCopy is the single-stream shared-memory copy bandwidth (BW_L).
	// Collective micro-benchmarks loop over the same buffers, so these
	// copies run cache-hot (Broadwell LLC-resident memcpy).
	BWCopy float64

	// BWMemAgg is the node-aggregate bandwidth available to concurrent CMA
	// transfers. CMA copies cross address spaces through the kernel and
	// miss caches, so k concurrent copies share this pool: each sees
	// min(BW_C, BWMemAgg/k). This produces the paper's b factor without a
	// separate empirical table.
	BWMemAgg float64

	// BWShmAgg is the node-aggregate bandwidth for concurrent shared-
	// memory pipeline copies (the cg factor of Equation 5). It is much
	// higher than BWMemAgg because phase-3 readers stream blocks the
	// leader just wrote — LLC-resident on the evaluation workloads.
	BWShmAgg float64

	// CongestionMinBytes is the message size above which memory congestion
	// applies (the paper notes b = 1 for small messages, which are
	// latency-bound).
	CongestionMinBytes int

	// StripeThreshold is the message size at which one rail saturates and
	// point-to-point transfers start striping across all rails (16 KB on
	// Thor, per Section 2.1 / Figure 3 of the paper).
	StripeThreshold int

	// RendezvousThreshold is the size above which the rendezvous protocol
	// adds an extra handshake round-trip to inter-node transfers.
	RendezvousThreshold int

	// AlphaRendezvous is the extra startup of a rendezvous handshake.
	AlphaRendezvous sim.Duration

	// InterSocketFactor scales intra-node transfers whose endpoints sit on
	// different NUMA sockets (QPI/UPI hop + remote memory). 1 means a flat
	// node; the paper's future-work 3-level design targets the > 1 case.
	InterSocketFactor float64

	// Jitter, when positive, perturbs every transfer and copy duration by
	// a uniform factor in [1, 1+2*Jitter] drawn from the world's seeded
	// RNG (mean 1+Jitter). It models OS and fabric noise: with Jitter = 0
	// the simulation is exactly reproducible; with a fixed seed it still
	// is, and sweeping seeds yields distributions for robustness studies.
	Jitter float64

	// AlphaPost is the CPU overhead of posting one send or completing one
	// receive (the LogGP "o" term: descriptor setup, tag-matching,
	// completion handling inside the MPI library). Thor's default is 0 —
	// the simulator's baselines already land on the paper's absolute
	// scale without it — but ThorWithOverhead enables it for the
	// sensitivity study of how per-message software costs compress the
	// medium-message margins (see EXPERIMENTS.md).
	AlphaPost sim.Duration
}

// BWReduce is the element-wise reduction throughput in bytes/second: a
// memory-bound AVX2 fold on one Broadwell core. It prices every fold the
// same way, whether the analyzer models it or a reducer executes it, so
// it is one constant rather than a per-calibration Params field.
const BWReduce = 8e9

// Thor returns the default calibration modeled after the paper's testbed.
func Thor() *Params {
	return &Params{
		AlphaHCA:            sim.FromMicros(1.9),
		BWHCA:               12.4e9, // HDR100: 100 Gb/s line rate, ~12.4 GB/s at MPI level
		AlphaCMA:            sim.FromMicros(0.60),
		BWCMA:               12.0e9, // "approximately equal" to one HCA (paper Fig. 1)
		AlphaCopy:           sim.FromMicros(0.30),
		BWCopy:              26.0e9,  // cache-hot single-stream shm copy
		BWMemAgg:            200.0e9, // concurrent-CMA ceiling (uncached, 2 sockets DDR4-2400)
		BWShmAgg:            700.0e9, // concurrent shm-pipeline ceiling (LLC-resident)
		CongestionMinBytes:  16 << 10,
		StripeThreshold:     16 << 10,
		RendezvousThreshold: 16 << 10,
		AlphaRendezvous:     sim.FromMicros(1.1),
		InterSocketFactor:   1.0,
	}
}

// ThorWithOverhead returns the Thor calibration plus a per-message CPU
// posting/completion cost, approximating production MPI library software
// overheads.
func ThorWithOverhead(o sim.Duration) *Params {
	p := Thor()
	p.AlphaPost = o
	return p
}

// NumaThor returns the Thor calibration with a NUMA penalty on
// cross-socket intra-node transfers, for the 3-level design studies
// (remote-socket CMA streams at roughly 2/3 the local rate on Broadwell).
func NumaThor() *Params {
	p := Thor()
	p.InterSocketFactor = 1.5
	return p
}

// ThetaGPU returns an 8-rail calibration in the spirit of ANL's ThetaGPU
// (eight HDR adapters per node), used by the rail-scaling ablation.
func ThetaGPU() *Params {
	p := Thor()
	p.BWHCA = 23.0e9 // HDR200
	return p
}

// Validate reports whether the parameters are physically sensible.
func (p *Params) Validate() error {
	switch {
	case p.BWHCA <= 0 || p.BWCMA <= 0 || p.BWCopy <= 0 || p.BWMemAgg <= 0 || p.BWShmAgg <= 0:
		return fmt.Errorf("netmodel: non-positive bandwidth in %+v", *p)
	case p.AlphaHCA < 0 || p.AlphaCMA < 0 || p.AlphaCopy < 0 || p.AlphaRendezvous < 0 || p.AlphaPost < 0:
		return fmt.Errorf("netmodel: negative startup cost in %+v", *p)
	case p.StripeThreshold < 0 || p.RendezvousThreshold < 0 || p.CongestionMinBytes < 0:
		return fmt.Errorf("netmodel: negative threshold in %+v", *p)
	case p.InterSocketFactor != 0 && p.InterSocketFactor < 1:
		return fmt.Errorf("netmodel: inter-socket factor %v < 1", p.InterSocketFactor)
	case p.Jitter < 0 || p.Jitter > 1:
		return fmt.Errorf("netmodel: jitter %v outside [0, 1]", p.Jitter)
	}
	return nil
}

// SocketFactor returns the effective cross-socket scale (>= 1; a zero
// value means unset and reads as flat).
func (p *Params) SocketFactor() float64 {
	if p.InterSocketFactor < 1 {
		return 1
	}
	return p.InterSocketFactor
}

// Congestion returns the slowdown factor for one of k concurrent memory
// operations of n bytes each running at baseBW against an aggregate pool
// aggBW: max(1, k*baseBW/aggBW). Small messages are latency-bound and see
// no congestion. This is the paper's b (CMA, pool BWMemAgg) and cg
// (shared-memory copy-out, pool BWShmAgg) in one mechanism.
func (p *Params) Congestion(n, concurrent int, baseBW, aggBW float64) float64 {
	if n < p.CongestionMinBytes || concurrent <= 1 {
		return 1
	}
	f := float64(concurrent) * baseBW / aggBW
	if f < 1 {
		return 1
	}
	return f
}

// CongestionCMA is the paper's b factor for one of k concurrent CMA copies.
func (p *Params) CongestionCMA(n, concurrent int) float64 {
	return p.Congestion(n, concurrent, p.BWCMA, p.BWMemAgg)
}

// CongestionShm is the paper's cg factor for one of k concurrent shared-
// memory pipeline copies.
func (p *Params) CongestionShm(n, concurrent int) float64 {
	return p.Congestion(n, concurrent, p.BWCopy, p.BWShmAgg)
}

// CMATime is T_C(M): the cost of an intra-node CMA transfer of n bytes when
// it is one of `concurrent` copies touching the node's memory.
func (p *Params) CMATime(n, concurrent int) sim.Duration {
	b := p.CongestionCMA(n, concurrent)
	return p.AlphaCMA + sim.FromSeconds(float64(n)*b/p.BWCMA)
}

// CopyTime is T_L(M): a local or shared-memory copy of n bytes as one of
// `concurrent` concurrent copies (cg factor).
func (p *Params) CopyTime(n, concurrent int) sim.Duration {
	cg := p.CongestionShm(n, concurrent)
	return p.AlphaCopy + sim.FromSeconds(float64(n)*cg/p.BWCopy)
}

// HCATime is T_H(M): an inter-node transfer of n bytes striped over `rails`
// rails, including the rendezvous handshake for large messages.
func (p *Params) HCATime(n, rails int) sim.Duration {
	if rails < 1 {
		panic("netmodel: need at least one rail")
	}
	d := p.AlphaHCA + sim.FromSeconds(float64(n)/(p.BWHCA*float64(rails)))
	if n >= p.RendezvousThreshold {
		d += p.AlphaRendezvous
	}
	return d
}

// AppendRailChunk appends to dst the per-rail piece sizes when n bytes
// stripe across `rails` rails; the remainder goes to the first rails.
func AppendRailChunk(dst []int, n, rails int) []int {
	base := n / rails
	rem := n % rails
	for i := 0; i < rails; i++ {
		piece := base
		if i < rem {
			piece++
		}
		dst = append(dst, piece)
	}
	return dst
}

// AppendRailChunkWeighted appends to dst the per-rail piece sizes when n
// bytes stripe across rails of unequal surviving bandwidth: piece i is
// proportional to weights[i] (largest-remainder rounding, ties to the
// lowest index, so the split is deterministic and sums exactly to n). A
// zero weight yields a zero piece; at least one weight must be positive.
// With equal weights it reproduces AppendRailChunk's equal split. Up to
// eight rails it allocates nothing but what dst needs to grow.
func AppendRailChunkWeighted(dst []int, n int, weights []float64) []int {
	if len(weights) == 0 {
		panic("netmodel: AppendRailChunkWeighted with no rails")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("netmodel: negative rail weight %v", w))
		}
		total += w
	}
	if total <= 0 {
		panic("netmodel: AppendRailChunkWeighted needs a positive total weight")
	}
	var remBuf [8]float64
	rem := remBuf[:0]
	start := len(dst)
	assigned := 0
	for _, w := range weights {
		exact := float64(n) * w / total
		piece := int(exact)
		dst = append(dst, piece)
		rem = append(rem, exact-float64(piece))
		assigned += piece
	}
	out := dst[start:]
	for left := n - assigned; left > 0; left-- {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
	}
	return dst
}

// RailBW is the line rate of one rail under an asymmetric-rail scale
// (topology.Cluster.RailScale). A non-positive scale reads as unset and
// yields the nominal rate, so homogeneous worlds price identically with
// or without a scale table.
func (p *Params) RailBW(scale float64) float64 {
	if scale <= 0 {
		return p.BWHCA
	}
	return p.BWHCA * scale
}

// RailWeights combines per-rail surviving health fractions with
// per-rail bandwidth scales into the striping weights
// AppendRailChunkWeighted expects: weight i = frac[i] * scale[i]. scales
// may be nil (all nominal). The result is proportional to each rail's
// deliverable bandwidth, so the stripe finishes evenly across asymmetric
// rails.
func RailWeights(fracs, scales []float64) []float64 {
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		s := 1.0
		if scales != nil {
			s = scales[i]
		}
		out[i] = f * s
	}
	return out
}

// ShouldStripe reports whether a message of n bytes should stripe across
// all rails rather than use a single round-robin rail.
func (p *Params) ShouldStripe(n int) bool { return n >= p.StripeThreshold }

func (p *Params) String() string {
	return fmt.Sprintf("netmodel{HCA a=%v bw=%.1fGB/s, CMA a=%v bw=%.1fGB/s, copy a=%v bw=%.1fGB/s, agg=%.1fGB/s, stripe>=%dB}",
		p.AlphaHCA, p.BWHCA/1e9, p.AlphaCMA, p.BWCMA/1e9, p.AlphaCopy, p.BWCopy/1e9, p.BWMemAgg/1e9, p.StripeThreshold)
}
