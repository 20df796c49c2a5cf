// Package bpmf implements a distributed Bayesian-Probabilistic-Matrix-
// Factorization-style training loop, the application family the paper
// cites three times as a major allgather consumer (Salakhutdinov & Mnih;
// Vander Aa et al., "Distributed Bayesian probabilistic matrix
// factorization"). Each Gibbs sweep alternates two half-steps; in each,
// every rank updates its partition of one factor matrix and then
// allgathers it so the opposite half-step can read all of it — two
// allgathers of K-dimensional factors per sweep.
//
// In real mode the factor updates are a deterministic contraction, so the
// test suite can assert that after any number of sweeps every rank holds
// bit-identical factor matrices — i.e. the collective really delivered
// everyone's updates everywhere.
package bpmf

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

// FlopRate models the per-core factor-update throughput in FLOP/s
// (Cholesky solves are compute-dense; higher than streaming dgemv).
const FlopRate = 8e9

// Config describes one BPMF run.
type Config struct {
	// Users and Items are the two entity counts; both must divide by the
	// rank count. Latent is the factor dimension K (the paper's cited
	// implementations use 10-100).
	Users, Items, Latent int
	// RatingsPerEntity scales the per-update compute (K^2 per rating plus
	// a K^3 solve). Zero defaults to 50.
	RatingsPerEntity int
	// Sweeps is the number of Gibbs sweeps (>= 1).
	Sweeps int
	// Topo, Params, Profile, Phantom as elsewhere.
	Topo    topology.Cluster
	Params  *netmodel.Params
	Profile collectives.Profile
	Phantom bool
}

// Result summarizes a run.
type Result struct {
	// Elapsed is the completion time of the slowest rank.
	Elapsed sim.Duration
	// SweepsPerSec is the training throughput.
	SweepsPerSec float64
	// UserDigest and ItemDigest are order-sensitive checksums of the final
	// factor matrices (real mode; every rank must agree, tests verify via
	// Run's internal cross-check).
	UserDigest, ItemDigest float64
}

func (c *Config) validate() error {
	p := c.Topo.Size()
	switch {
	case c.Users <= 0 || c.Items <= 0 || c.Latent <= 0:
		return fmt.Errorf("bpmf: non-positive problem %d/%d/%d", c.Users, c.Items, c.Latent)
	case c.Users%p != 0 || c.Items%p != 0:
		return fmt.Errorf("bpmf: users %d / items %d not divisible by %d ranks", c.Users, c.Items, p)
	case c.Sweeps < 0:
		return fmt.Errorf("bpmf: negative sweeps")
	}
	return nil
}

// factor returns the deterministic update value of entity e, dimension k,
// at a given sweep.
func factor(e, k, sweep int) float64 {
	return float64((e*31+k*7+sweep*13)%101) / 101
}

// updateCost models one entity's factor update.
func updateCost(cfg Config) sim.Duration {
	k := float64(cfg.Latent)
	ratings := float64(cfg.RatingsPerEntity)
	if ratings == 0 {
		ratings = 50
	}
	flops := ratings*k*k + k*k*k
	return sim.FromSeconds(flops / FlopRate)
}

// Run executes the training loop.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if cfg.Sweeps == 0 {
		cfg.Sweeps = 1
	}
	w := mpi.New(mpi.Config{Topo: cfg.Topo, Params: cfg.Params, Phantom: cfg.Phantom})
	p := cfg.Topo.Size()
	K := cfg.Latent
	uPer, iPer := cfg.Users/p, cfg.Items/p
	uBytes, iBytes := uPer*K*8, iPer*K*8
	cost := updateCost(cfg)

	digests := make([][2]float64, p)
	mismatch := false
	err := w.Run(func(proc *mpi.Proc) {
		r := proc.Rank()
		userSeg := mpi.Make(uBytes, cfg.Phantom)
		itemSeg := mpi.Make(iBytes, cfg.Phantom)
		userAll := mpi.Make(uBytes*p, cfg.Phantom)
		itemAll := mpi.Make(iBytes*p, cfg.Phantom)
		for s := 1; s <= cfg.Sweeps; s++ {
			// Half-step 1: update this rank's user factors, share them.
			fill(userSeg, r*uPer, K, s)
			proc.Compute(cost * sim.Duration(uPer))
			cfg.Profile.Allgather(proc, w, userSeg, userAll)
			// Half-step 2: item factors (reads userAll in the real system).
			fill(itemSeg, r*iPer, K, s)
			proc.Compute(cost * sim.Duration(iPer))
			cfg.Profile.Allgather(proc, w, itemSeg, itemAll)
		}
		digests[r] = [2]float64{digest(userAll), digest(itemAll)}
	})
	if err != nil {
		return Result{}, err
	}
	for r := 1; r < p; r++ {
		if digests[r] != digests[0] {
			mismatch = true
		}
	}
	if mismatch {
		return Result{}, fmt.Errorf("bpmf: ranks disagree on the final factors")
	}
	elapsed := sim.Duration(w.Makespan())
	return Result{
		Elapsed:      elapsed,
		SweepsPerSec: float64(cfg.Sweeps) / elapsed.Seconds(),
		UserDigest:   digests[0][0],
		ItemDigest:   digests[0][1],
	}, nil
}

// fill writes the sweep's deterministic factors for entities starting at
// base into a real segment (no-op for phantom).
func fill(seg mpi.Buf, base, K, sweep int) {
	if seg.IsPhantom() {
		return
	}
	d := seg.Data()
	for e := 0; e < len(d)/(K*8); e++ {
		for k := 0; k < K; k++ {
			binary.LittleEndian.PutUint64(d[(e*K+k)*8:], math.Float64bits(factor(base+e, k, sweep)))
		}
	}
}

// digest folds a buffer into an order-sensitive checksum (0 for phantom).
func digest(b mpi.Buf) float64 {
	if b.IsPhantom() {
		return 0
	}
	s := 0.0
	d := b.Data()
	for i := 0; i+8 <= len(d); i += 8 {
		s = s*1.000001 + math.Float64frombits(binary.LittleEndian.Uint64(d[i:]))
	}
	return s
}
