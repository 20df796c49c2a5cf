// Package stencil implements a distributed 1-D Jacobi heat-diffusion
// solver — the "solving differential equations" application family the
// paper's introduction motivates. Unlike the allgather-bound kernels, its
// communication is nearest-neighbor halo exchange, so it exercises the
// runtime's point-to-point layer (CMA inside nodes, rail-striped transfers
// at node boundaries) and demonstrates that the substrate is a general
// MPI runtime, not an allgather-only harness.
//
// In real mode the distributed grid is verified against a sequential
// solver to full floating-point equality.
package stencil

import (
	"encoding/binary"
	"fmt"
	"math"

	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// FlopRate models the per-core stencil update throughput in FLOP/s
// (3 flops per point, streaming: memory bound).
const FlopRate = 4e9

// Config describes one solver run.
type Config struct {
	// Points is the global grid size; must divide by the rank count.
	Points int
	// Iterations is the number of Jacobi sweeps (>= 1).
	Iterations int
	// Alpha is the diffusion coefficient (0 < Alpha <= 0.5 for stability).
	Alpha float64
	// Topo, Params, Phantom as elsewhere.
	Topo    topology.Cluster
	Params  *netmodel.Params
	Phantom bool
}

// Result summarizes a run.
type Result struct {
	// Elapsed is the completion time of the slowest rank.
	Elapsed sim.Duration
	// PointsPerSec is the aggregate update throughput.
	PointsPerSec float64
	// Grid is the final global grid (real mode only).
	Grid []float64
}

// Initial returns the deterministic initial condition at point i.
func Initial(i, points int) float64 {
	x := float64(i) / float64(points-1)
	return math.Sin(math.Pi * x)
}

// Sequential runs the same sweeps on one core — the oracle.
func Sequential(cfg Config) []float64 {
	g := make([]float64, cfg.Points)
	for i := range g {
		g[i] = Initial(i, cfg.Points)
	}
	next := make([]float64, cfg.Points)
	for it := 0; it < cfg.Iterations; it++ {
		next[0], next[cfg.Points-1] = g[0], g[cfg.Points-1] // fixed boundary
		for i := 1; i < cfg.Points-1; i++ {
			next[i] = g[i] + cfg.Alpha*(g[i-1]-2*g[i]+g[i+1])
		}
		g, next = next, g
	}
	return g
}

func (c *Config) validate() error {
	p := c.Topo.Size()
	switch {
	case c.Points <= 0 || c.Points%p != 0:
		return fmt.Errorf("stencil: %d points not divisible by %d ranks", c.Points, p)
	case c.Points/p < 2:
		return fmt.Errorf("stencil: need at least 2 points per rank")
	case c.Iterations < 1:
		return fmt.Errorf("stencil: need at least 1 iteration")
	case c.Alpha <= 0 || c.Alpha > 0.5:
		return fmt.Errorf("stencil: alpha %v outside (0, 0.5]", c.Alpha)
	}
	return nil
}

// Run executes the distributed solver.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	w := mpi.New(mpi.Config{Topo: cfg.Topo, Params: cfg.Params, Phantom: cfg.Phantom})
	p := cfg.Topo.Size()
	per := cfg.Points / p
	grid := make([]float64, cfg.Points)
	err := w.Run(func(proc *mpi.Proc) {
		r := proc.Rank()
		base := r * per
		// Local segment with one halo cell on each side.
		cur := make([]float64, per+2)
		next := make([]float64, per+2)
		for i := 0; i < per; i++ {
			cur[i+1] = Initial(base+i, cfg.Points)
		}
		c := w.CommWorld()
		left, right := r-1, r+1
		flops := 3 * float64(per)
		for it := 0; it < cfg.Iterations; it++ {
			// Halo exchange: send edges, receive neighbors' edges.
			var reqs []*mpi.Request
			if left >= 0 {
				reqs = append(reqs, proc.Isend(c, left, mpi.Tag(it, mpi.PhaseHalo, 1), cell(cur[1], cfg.Phantom)))
				reqs = append(reqs, proc.Irecv(c, left, mpi.Tag(it, mpi.PhaseHalo, 2)))
			}
			if right < p {
				reqs = append(reqs, proc.Isend(c, right, mpi.Tag(it, mpi.PhaseHalo, 2), cell(cur[per], cfg.Phantom)))
				reqs = append(reqs, proc.Irecv(c, right, mpi.Tag(it, mpi.PhaseHalo, 1)))
			}
			idx := 0
			if left >= 0 {
				proc.Wait(reqs[idx])
				cur[0] = cellValue(proc.Wait(reqs[idx+1]), cur[0])
				idx += 2
			}
			if right < p {
				proc.Wait(reqs[idx])
				cur[per+1] = cellValue(proc.Wait(reqs[idx+1]), cur[per+1])
			}
			// Update; global boundary points stay fixed.
			proc.Compute(sim.FromSeconds(flops / FlopRate))
			for i := 1; i <= per; i++ {
				gi := base + i - 1
				if gi == 0 || gi == cfg.Points-1 {
					next[i] = cur[i]
					continue
				}
				next[i] = cur[i] + cfg.Alpha*(cur[i-1]-2*cur[i]+cur[i+1])
			}
			cur, next = next, cur
		}
		if !cfg.Phantom {
			for i := 0; i < per; i++ {
				grid[base+i] = cur[i+1]
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	elapsed := sim.Duration(w.Makespan())
	res := Result{
		Elapsed:      elapsed,
		PointsPerSec: float64(cfg.Points) * float64(cfg.Iterations) / elapsed.Seconds(),
	}
	if !cfg.Phantom {
		res.Grid = grid
	}
	return res, nil
}

// cell wraps one float64 as a message payload.
func cell(v float64, phantom bool) mpi.Buf {
	if phantom {
		return mpi.Phantom(8)
	}
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return mpi.Bytes(b)
}

// cellValue unwraps a one-float64 payload (returning fallback in phantom
// mode, where the halo value is not carried).
func cellValue(b mpi.Buf, fallback float64) float64 {
	if b.IsPhantom() {
		return fallback
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Data()))
}
