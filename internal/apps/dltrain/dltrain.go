// Package dltrain implements the synthetic data-parallel deep-learning
// training benchmark of the paper's Section 5.6 (PyTorch + Horovod on
// ResNet-50/101/152 with batch size 16): every training step runs local
// forward/backward compute and then a gradient allreduce, and the metric
// is images per second. Only the allreduce differs between the compared
// libraries, exactly as in the paper's Figure 17.
//
// The paper used the Horovod-provided synthetic benchmark; compute per
// step is therefore a modeled constant per network, calibrated so the
// gradient allreduce contributes a realistic (~5-15%) share of the step —
// the regime where the paper's reported 7.83% end-to-end improvement is
// possible.
package dltrain

import (
	"fmt"

	"mha/internal/collectives"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// Network describes one neural network's training footprint.
type Network struct {
	// Name is the display name.
	Name string
	// Params is the parameter count; gradients are 4-byte floats.
	Params int
	// StepCompute is the modeled forward+backward time for one batch on
	// one rank.
	StepCompute sim.Duration
}

// GradBytes returns the gradient buffer size (fp32).
func (n Network) GradBytes() int { return n.Params * 4 }

// The three networks of the paper's Figure 17 (parameter counts from its
// Section 5.6: 25.6M, 44.7M and 60.4M).
func ResNet50() Network {
	return Network{Name: "ResNet-50", Params: 25_600_000, StepCompute: 150 * sim.Millisecond}
}
func ResNet101() Network {
	return Network{Name: "ResNet-101", Params: 44_700_000, StepCompute: 260 * sim.Millisecond}
}
func ResNet152() Network {
	return Network{Name: "ResNet-152", Params: 60_400_000, StepCompute: 360 * sim.Millisecond}
}

// Networks returns the benchmark set in the paper's order.
func Networks() []Network { return []Network{ResNet50(), ResNet101(), ResNet152()} }

// Config describes one training benchmark.
type Config struct {
	// Net is the network being trained.
	Net Network
	// Topo is the cluster shape.
	Topo topology.Cluster
	// Params is the cost model (nil = Thor).
	Params *netmodel.Params
	// Profile supplies the allreduce implementation.
	Profile collectives.Profile
	// BatchPerRank is the per-worker batch size (the paper uses 16).
	BatchPerRank int
	// Steps is the number of measured training steps (>=1).
	Steps int
}

// Result is the outcome of one training benchmark.
type Result struct {
	// StepTime is the average wall-clock (virtual) time per step.
	StepTime sim.Duration
	// ImagesPerSec is the aggregate training throughput.
	ImagesPerSec float64
	// CommFraction is the allreduce share of the step time, averaged.
	CommFraction float64
}

// Run executes the synthetic training loop.
func Run(cfg Config) (Result, error) {
	if cfg.BatchPerRank <= 0 {
		cfg.BatchPerRank = 16
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 1
	}
	if cfg.Net.Params <= 0 || cfg.Net.StepCompute <= 0 {
		return Result{}, fmt.Errorf("dltrain: invalid network %+v", cfg.Net)
	}
	w := mpi.New(mpi.Config{Topo: cfg.Topo, Params: cfg.Params, Phantom: true})
	p := cfg.Topo.Size()
	// Pad the gradient buffer to a multiple of 8*P so ring reduce-scatter
	// chunks are uniform (Horovod's fusion buffer does the same).
	grad := cfg.Net.GradBytes()
	unit := 8 * p
	grad = (grad + unit - 1) / unit * unit

	var commTotal sim.Duration
	err := w.Run(func(proc *mpi.Proc) {
		buf := mpi.Phantom(grad)
		for s := 0; s < cfg.Steps; s++ {
			proc.Compute(cfg.Net.StepCompute)
			t0 := proc.Now()
			cfg.Profile.Allreduce(proc, w, buf, collectives.SumF64())
			if proc.Rank() == 0 {
				commTotal += sim.Duration(proc.Now() - t0)
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	elapsed := sim.Duration(w.Makespan())
	step := elapsed / sim.Duration(cfg.Steps)
	images := float64(cfg.Steps * cfg.BatchPerRank * p)
	return Result{
		StepTime:     step,
		ImagesPerSec: images / elapsed.Seconds(),
		CommFraction: float64(commTotal) / float64(elapsed),
	}, nil
}
