package main

import (
	"flag"
	"fmt"
	"os"

	"mha/internal/bench"
	"mha/internal/netmodel"
	"mha/internal/perfmodel"
)

// runModel evaluates the analytic cost models of the paper's Section 4
// (Equations 1-7) for arbitrary cluster shapes and message sizes, and
// runs the model-validation experiments (Figures 9 and 10).
//
//	mha model -nodes 8 -ppn 32 -hcas 2          # model table over sizes
//	mha model -validate 9                       # Figure 9 validation
//	mha model -validate 10 -quick               # Figure 10, reduced scale
func runModel(args []string) error {
	fs := flag.NewFlagSet("mha model", flag.ExitOnError)
	var (
		shape    = shapeFlags(fs, 8, 32, 2)
		minSize  = fs.Int("min", 1<<10, "smallest per-rank message size")
		maxSize  = fs.Int("max", 1<<20, "largest per-rank message size")
		validate = fs.String("validate", "", "run a validation figure instead: 9 or 10")
		quick    = fs.Bool("quick", false, "reduced scale for -validate")
	)
	fs.Parse(args)

	if *validate != "" {
		sc := bench.Full
		if *quick {
			sc = bench.Quick
		}
		e, ok := bench.ByID(*validate)
		if !ok || (*validate != "9" && *validate != "10") {
			return usageError{fmt.Errorf("-validate takes 9 or 10")}
		}
		return e.Run(os.Stdout, sc)
	}

	topo, err := shape()
	if err != nil {
		return err
	}
	prm := netmodel.Thor()
	m := perfmodel.New(prm, topo)

	fmt.Printf("cost model for %v\n", topo)
	fmt.Printf("parameters: %v\n\n", prm)
	fmt.Printf("%-10s %10s %12s %12s %14s %14s %8s\n",
		"size", "Eq.1 d", "MHA-intra", "flat ring", "MHA-inter RD", "MHA-inter Ring", "phase2")
	for sz := *minSize; sz <= *maxSize; sz *= 2 {
		alg := "rd"
		if m.RingBetterThanRD(sz) {
			alg = "ring"
		}
		fmt.Printf("%-10s %10.2f %10.1fus %10.1fus %12.1fus %12.1fus %8s\n",
			bench.SizeLabel(sz),
			m.OffloadD(sz),
			m.MHAIntra(sz).Micros(),
			m.FlatRing(sz).Micros(),
			m.MHAInterRD(sz).Micros(),
			m.MHAInterRing(sz).Micros(),
			alg)
	}

	fmt.Printf("\npublished-form equations at %s:\n", bench.SizeLabel(*maxSize))
	fmt.Printf("  Eq.3 phase-2 RD:    %v\n", m.Phase2RD(*maxSize))
	fmt.Printf("  Eq.4 phase-2 Ring:  %v\n", m.Phase2Ring(*maxSize))
	fmt.Printf("  Eq.5 intra bcast:   %v\n", m.IntraBcast(*maxSize))
	fmt.Printf("  Eq.6 MHA-inter RD:  %v\n", m.PaperEq6(*maxSize))
	fmt.Printf("  Eq.7 MHA-inter Ring:%v\n", m.PaperEq7(*maxSize))
	return nil
}
