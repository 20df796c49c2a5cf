// Package matvec implements the distributed matrix-vector multiplication
// kernel of the paper's Section 5.5: y = A*x with A partitioned in a 1D
// row layout, x and y split into equal per-rank segments. Each step every
// rank broadcasts its x segment — an allgather — and then multiplies its
// row block locally. The problem sizes of the paper's Figure 16 make
// communication a significant fraction of the runtime, which is what
// exposes the allgather implementation.
//
// With real buffers the kernel computes actual float64 arithmetic so the
// distributed result is verified against a sequential multiplication; with
// phantom buffers only the cost model runs, which is how the full 1024-
// process configurations are measured.
package matvec

import (
	"encoding/binary"
	"fmt"
	"math"

	"mha/internal/collectives"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// FlopRate is the modeled per-core dgemv throughput in FLOP/s. dgemv is
// memory-bound: 2 flops per 8-byte matrix element read gives roughly
// BW/4 flops/s on a Broadwell core streaming at ~13 GB/s.
const FlopRate = 3.2e9

// Config describes one matvec experiment.
type Config struct {
	// Rows and Cols are the dimensions of A (the paper's M x N). Rows must
	// divide evenly among ranks, and Cols must divide by 8-byte elements.
	Rows, Cols int
	// Topo is the cluster shape; Rows and Cols must divide by its size.
	Topo topology.Cluster
	// Params is the cost model (nil = Thor).
	Params *netmodel.Params
	// Profile supplies the allgather (HPC-X, MVAPICH2-X or MHA).
	Profile collectives.Profile
	// Phantom runs the kernel without real arithmetic.
	Phantom bool
	// Iterations repeats the multiply (>=1; deterministic, so 1 is enough
	// for timing — more iterations exercise buffer reuse).
	Iterations int
}

// Result is the outcome of one matvec run.
type Result struct {
	// Elapsed is the virtual time of the slowest rank across all
	// iterations.
	Elapsed sim.Duration
	// GFLOPS is the aggregate achieved rate: Iterations*2*Rows*Cols /
	// Elapsed.
	GFLOPS float64
	// Y is the assembled output vector (real mode only, for verification).
	Y []float64
}

func (c *Config) validate() error {
	p := c.Topo.Size()
	switch {
	case c.Rows <= 0 || c.Cols <= 0:
		return fmt.Errorf("matvec: non-positive problem %dx%d", c.Rows, c.Cols)
	case c.Rows%p != 0:
		return fmt.Errorf("matvec: rows %d not divisible by %d ranks", c.Rows, p)
	case c.Cols%p != 0:
		return fmt.Errorf("matvec: cols %d not divisible by %d ranks", c.Cols, p)
	case c.Iterations < 0:
		return fmt.Errorf("matvec: negative iterations")
	}
	return nil
}

// A returns the deterministic test matrix element at (i, j).
func A(i, j int) float64 { return float64((i*31+j*17)%97) / 97 }

// X returns the deterministic input vector element at j.
func X(j int) float64 { return float64((j*13)%89) / 89 }

// Sequential computes y = A*x on one core, the oracle for tests.
func Sequential(rows, cols int) []float64 {
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		s := 0.0
		for j := 0; j < cols; j++ {
			s += A(i, j) * X(j)
		}
		y[i] = s
	}
	return y
}

// Run executes the kernel and reports timing (and, in real mode, the
// result vector).
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	iters := cfg.Iterations
	if iters == 0 {
		iters = 1
	}
	w := mpi.New(mpi.Config{Topo: cfg.Topo, Params: cfg.Params, Phantom: cfg.Phantom})
	p := cfg.Topo.Size()
	segElems := cfg.Cols / p
	rowsPer := cfg.Rows / p
	segBytes := segElems * 8

	y := make([]float64, cfg.Rows)
	err := w.Run(func(proc *mpi.Proc) {
		r := proc.Rank()
		// Local x segment.
		seg := mpi.Make(segBytes, cfg.Phantom)
		if !cfg.Phantom {
			for e := 0; e < segElems; e++ {
				binary.LittleEndian.PutUint64(seg.Data()[e*8:], math.Float64bits(X(r*segElems+e)))
			}
		}
		full := mpi.Make(segBytes*p, cfg.Phantom)
		flops := 2 * float64(rowsPer) * float64(cfg.Cols)
		for it := 0; it < iters; it++ {
			cfg.Profile.Allgather(proc, w, seg, full)
			proc.Compute(sim.FromSeconds(flops / FlopRate))
		}
		if !cfg.Phantom {
			for i := 0; i < rowsPer; i++ {
				row := r*rowsPer + i
				s := 0.0
				for j := 0; j < cfg.Cols; j++ {
					s += A(row, j) * math.Float64frombits(binary.LittleEndian.Uint64(full.Data()[j*8:]))
				}
				y[row] = s
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	elapsed := sim.Duration(w.Makespan())
	totalFlops := float64(iters) * 2 * float64(cfg.Rows) * float64(cfg.Cols)
	res := Result{
		Elapsed: elapsed,
		GFLOPS:  totalFlops / elapsed.Seconds() / 1e9,
	}
	if !cfg.Phantom {
		res.Y = y
	}
	return res, nil
}
