package main

import (
	"flag"
	"fmt"
	"os"

	"mha/internal/compose"
	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/topology"
	"mha/internal/trace"
	"mha/internal/verify"
)

// composeCmds work with compositional collectives (the internal/compose
// layer): declarative pipelines of multicast / reduce / fence primitives
// over a machine hierarchy, compiled to the schedule IR. They print the
// standard compositions and the hierarchy a machine spec induces, lower a
// composition to the IR, price and check the lowered schedule with the
// static analyzer, and run a registered derived variant on the simulated
// MPI runtime under the byte-exact verification oracle.
//
//	mha compose list                                         # registered derived variants
//	mha compose describe -coll reduce-scatter                # pipeline + hierarchy levels
//	mha compose lower -coll alltoall -nodes 4 -ppn 4 -msg 4096   # schedule IR on stdout
//	mha compose analyze -coll reduce-scatter -flat -msg 65536    # analyzer report
//	mha compose run -name compose-rs -nodes 2 -ppn 4 -msg 1024   # execute + verify bytes
//	mha compose lower -f pipeline.txt -nodes 2 -ppn 2            # custom composition file
//
// The exit status is 0 on success; analyzer violations and verification
// mismatches exit 1, so scripts can gate on derivation validity.
var composeCmds = []tool{
	{"list", "show the registered derived variants and their pipelines", composeList},
	{"describe", "print a composition's pipeline and the machine hierarchy", composeDescribe},
	{"lower", "compile a composition to the schedule IR (text on stdout)", composeLower},
	{"analyze", "lower, then check invariants and price the critical path", composeAnalyze},
	{"run", "execute a registered variant with the byte-exact oracle", composeRun},
}

// composeTopo is layoutFlags plus the -sockets only compose takes.
func composeTopo(fs *flag.FlagSet) func() (topology.Cluster, error) {
	shape := layoutFlags(fs)
	sockets := fs.Int("sockets", 0, "NUMA sockets per node (0 = uniform)")
	return func() (topology.Cluster, error) {
		c, err := shape()
		if err != nil {
			return c, err
		}
		// shape validated the cluster before it had sockets.
		c.Sockets = *sockets
		if err := c.Validate(); err != nil {
			return c, usageError{err}
		}
		return c, nil
	}
}

// compFlags registers the composition-selection flags and returns a
// loader: either a standard composition picked by collective name (flat
// or hierarchical), or a pipeline file parsed from -f.
func compFlags(fs *flag.FlagSet) func() (compose.Composition, error) {
	coll := fs.String("coll", "", "collective: allgather, reduce-scatter, alltoall, gather, scatter, allreduce, bcast")
	flat := fs.Bool("flat", false, "use the flat (topology-oblivious) standard composition")
	file := fs.String("f", "", "composition file (overrides -coll)")
	return func() (compose.Composition, error) {
		if *file != "" {
			data, err := os.ReadFile(*file)
			if err != nil {
				return compose.Composition{}, err
			}
			return compose.ParseComposition(string(data))
		}
		if *coll == "" {
			return compose.Composition{}, fmt.Errorf("need -coll or -f")
		}
		c, err := compose.ParseCollective(*coll)
		if err != nil {
			return compose.Composition{}, err
		}
		if *flat {
			return compose.Flat(c), nil
		}
		if c == compose.Allreduce {
			// The standard allreduce is already a flat pipeline
			// (reduce-scatter ring, fence, allgather ring).
			return compose.Flat(c), nil
		}
		return compose.Hierarchical(c), nil
	}
}

func composeList(args []string) error {
	fs := flag.NewFlagSet("mha compose list", flag.ExitOnError)
	fs.Parse(args)
	for _, v := range compose.Variants() {
		kind := "hierarchical"
		if !v.BlockOnly {
			kind = "flat"
		}
		fmt.Printf("%-24s %-14s %-13s %d primitives\n", v.Name, v.Coll, kind, len(v.Comp.Pipeline))
	}
	return nil
}

func composeDescribe(args []string) error {
	fs := flag.NewFlagSet("mha compose describe", flag.ExitOnError)
	mkComp := compFlags(fs)
	mkTopo := composeTopo(fs)
	fs.Parse(args)
	comp, err := mkComp()
	if err != nil {
		return err
	}
	topo, err := mkTopo()
	if err != nil {
		return err
	}
	hier := compose.NewHierarchy(topo)
	fmt.Print(comp.String())
	fmt.Printf("\nhierarchy %s\n%s", hier.String(), hier.Describe())
	return nil
}

func composeLower(args []string) error {
	fs := flag.NewFlagSet("mha compose lower", flag.ExitOnError)
	mkComp := compFlags(fs)
	mkTopo := composeTopo(fs)
	msg := fs.Int("msg", 64<<10, "per-rank message size in bytes")
	fs.Parse(args)
	plan, err := lower(mkComp, mkTopo, *msg)
	if err != nil {
		return err
	}
	fmt.Print(plan.Sched.String())
	return nil
}

func composeAnalyze(args []string) error {
	fs := flag.NewFlagSet("mha compose analyze", flag.ExitOnError)
	mkComp := compFlags(fs)
	mkTopo := composeTopo(fs)
	msg := fs.Int("msg", 64<<10, "per-rank message size in bytes")
	fs.Parse(args)
	plan, err := lower(mkComp, mkTopo, *msg)
	if err != nil {
		return err
	}
	rep, err := plan.Analyze(netmodel.Thor(), nil)
	if err != nil {
		return fmt.Errorf("analyze %s: %v", plan.Comp.Name, err)
	}
	topo := plan.Hier.Topo
	fmt.Printf("composition %s (%s) on %dx%dx%d, msg %d B\n",
		plan.Comp.Name, plan.Comp.Coll, topo.Nodes, topo.PPN, topo.HCAs, plan.Msg)
	xfers := 0
	for _, st := range plan.Sched.Steps {
		xfers += len(st.Xfers)
	}
	fmt.Printf("  steps %d, transfers %d (pulls %d, copies %d, reducing %d)\n",
		len(plan.Sched.Steps), xfers, rep.Pulls, rep.Copies, rep.Reduces)
	fmt.Printf("  wire bytes %d, intra-node bytes %d\n", rep.WireBytes, rep.IntraBytes)
	fmt.Printf("  analyzer cost %.3f us\n", rep.Cost.Micros())
	if mk, err := sched.SimulateGoal(topo, netmodel.Thor(), plan.Sched, plan.Goal); err == nil {
		fmt.Printf("  simulated makespan %.3f us\n", mk.Micros())
	}
	fmt.Println("  invariants: ok")
	return nil
}

func lower(mkComp func() (compose.Composition, error), mkTopo func() (topology.Cluster, error), msg int) (*compose.Plan, error) {
	comp, err := mkComp()
	if err != nil {
		return nil, err
	}
	topo, err := mkTopo()
	if err != nil {
		return nil, err
	}
	return compose.Lower(comp, compose.NewHierarchy(topo), msg, nil)
}

// lowers refuses a shape a compose row cannot be lowered on, so the
// refusal is one line before a world is built rather than a panic on
// every rank at run time (compose.Runner). Other rows pass.
func lowers(alg string, topo topology.Cluster, msg int) error {
	v, ok := compose.ByName(alg)
	if !ok {
		return nil
	}
	if _, err := compose.Lower(v.Comp, compose.NewHierarchy(topo), msg, nil); err != nil {
		return usageError{err}
	}
	return nil
}

func composeRun(args []string) error {
	fs := flag.NewFlagSet("mha compose run", flag.ExitOnError)
	name := fs.String("name", "compose-ag", "registered variant name (see 'mha compose list')")
	mkTopo := composeTopo(fs)
	msg := fs.Int("msg", 4096, "per-rank message size in bytes")
	seed := fs.Int64("seed", 1, "engine seed")
	jitter := fs.Float64("jitter", 0, "fabric noise amplitude (0 disables)")
	fs.Parse(args)
	if _, ok := compose.ByName(*name); !ok {
		return fmt.Errorf("unknown variant %q (see 'mha compose list')", *name)
	}
	topo, err := mkTopo()
	if err != nil {
		return err
	}
	if err := lowers(*name, topo, *msg); err != nil {
		return err
	}
	sc := verify.Scenario{Alg: *name, Cluster: topo, Msg: *msg, Seed: *seed, Jitter: *jitter}
	rec := trace.New()
	res := verify.RunOnce(sc, rec, nil)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", v.Kind, v.Detail)
		}
		return fmt.Errorf("%s on %dx%dx%d: %d violations", *name, topo.Nodes, topo.PPN, topo.HCAs, len(res.Violations))
	}
	fmt.Printf("%s on %dx%dx%d, msg %d B: verified, makespan %.3f us, trace hash %#016x\n",
		*name, topo.Nodes, topo.PPN, topo.HCAs, *msg,
		float64(res.Makespan)/1e3, rec.Hash())
	return nil
}
