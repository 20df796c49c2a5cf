package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mha/internal/compose"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/sim"
	"mha/internal/topology"
)

// schedCmds work with explicit communication schedules (the
// internal/sched IR): lowering the repo's allgather designs to schedule
// files, statically analyzing them (correctness invariants plus an
// alpha-beta critical-path cost), executing them on the simulated MPI
// runtime with real payload verification, and searching schedule space
// for a machine/message-size pair.
//
//	mha sched build -alg mha -nodes 4 -ppn 8 -hcas 2 -msg 262144   # lower to text IR on stdout
//	mha sched analyze -f plan.sched                                 # invariants + cost report
//	mha sched run -f plan.sched                                     # execute, verify bytes, time it
//	mha sched search -nodes 4 -ppn 8 -hcas 2 -msg 262144 -o best.sched
//	mha sched export -f plan.sched -json                            # text -> JSON tuples (and back)
//
// The exit status is 0 on success; analysis failures (an invalid
// schedule) and verification mismatches exit 1, so scripts can gate on
// schedule validity directly.
var schedCmds = []tool{
	{"build", "lower a named design (ring, rd, mha, mha-rd, direct-rail) to the schedule IR", schedBuild},
	{"analyze", "check a schedule's invariants and price its critical path", schedAnalyze},
	{"run", "execute a schedule on the simulated runtime with byte verification", schedRun},
	{"search", "synthesize a schedule for a machine and message size", schedSearch},
	{"export", "convert a schedule between the text and JSON forms", schedExport},
}

// layoutFlags is shapeFlags with the defaults of sched and compose, plus
// the -layout those two take.
func layoutFlags(fs *flag.FlagSet) func() (topology.Cluster, error) {
	shape := shapeFlags(fs, 2, 2, 2)
	layout := fs.String("layout", "block", "rank layout: block or cyclic")
	return func() (topology.Cluster, error) {
		c, err := shape()
		if err != nil {
			return c, err
		}
		c.Layout, err = topology.ParseLayout(*layout)
		return c, err
	}
}

// buildAlg lowers one named design.
func buildAlg(alg string, topo topology.Cluster, msg int) (*sched.Schedule, error) {
	prm := netmodel.Thor()
	switch alg {
	case "ring":
		return sched.Ring(topo, msg), nil
	case "rd":
		return sched.RecursiveDoubling(topo, msg), nil
	case "mha", "mha-ring":
		return sched.TwoPhaseMHA(topo, prm, msg, sched.MHAOptions{Offload: sched.AutoOffload}), nil
	case "mha-rd":
		return sched.TwoPhaseMHA(topo, prm, msg,
			sched.MHAOptions{Phase2: sched.Phase2RD, Offload: sched.AutoOffload}), nil
	case "direct-rail":
		s := sched.DirectRail(topo, msg)
		if s == nil {
			return nil, fmt.Errorf("direct-rail does not fit the step limit on %v", topo)
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (want ring, rd, mha, mha-rd, or direct-rail)", alg)
}

// emitSched writes the schedule to path (or stdout when empty), as JSON when
// asJSON is set and the canonical text form otherwise.
func emitSched(s *sched.Schedule, path string, asJSON bool) error {
	var out []byte
	if asJSON {
		js, err := s.JSON()
		if err != nil {
			return err
		}
		out = append(js, '\n')
	} else {
		out = []byte(s.String())
	}
	if path == "" {
		_, err := os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// loadSched reads and parses a schedule file ("-" means stdin).
func loadSched(path string) (*sched.Schedule, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -f <schedule file>")
	}
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return sched.Parse(string(data))
}

func schedBuild(args []string) error {
	fs := flag.NewFlagSet("mha sched build", flag.ExitOnError)
	alg := fs.String("alg", "mha", "design to lower: ring, rd, mha, mha-rd, direct-rail")
	msg := fs.Int("msg", 64<<10, "message size per rank in bytes")
	out := fs.String("o", "", "output file (default stdout)")
	asJSON := fs.Bool("json", false, "emit JSON instead of the text form")
	mkTopo := layoutFlags(fs)
	fs.Parse(args)
	topo, err := mkTopo()
	if err != nil {
		return err
	}
	s, err := buildAlg(*alg, topo, *msg)
	if err != nil {
		return err
	}
	return emitSched(s, *out, *asJSON)
}

func schedAnalyze(args []string) error {
	fs := flag.NewFlagSet("mha sched analyze", flag.ExitOnError)
	file := fs.String("f", "", "schedule file (text or JSON; - for stdin)")
	steps := fs.Bool("steps", false, "print the per-step cost breakdown")
	fs.Parse(args)
	s, err := loadSched(*file)
	if err != nil {
		return err
	}
	prm := netmodel.Thor()
	rep, err := sched.Analyze(s, prm)
	if err != nil {
		return fmt.Errorf("schedule %s is invalid:\n%v", s.Name, err)
	}
	fmt.Printf("schedule %s on %v, msg %d B\n", s.Name, s.Topo, s.Msg)
	fmt.Printf("  steps      %d\n", len(s.Steps))
	fmt.Printf("  transfers  %d (%d pulls, %d staging copies)\n", rep.Transfers, rep.Pulls, rep.Copies)
	fmt.Printf("  wire bytes %d   intra bytes %d\n", rep.WireBytes, rep.IntraBytes)
	fmt.Printf("  cost       %v (critical path, alpha-beta model)\n", rep.Cost)
	if *steps {
		for i, c := range rep.StepCosts {
			fmt.Printf("  step %3d   %v\n", i, c)
		}
	}
	fmt.Println("OK")
	return nil
}

func schedRun(args []string) error {
	fs := flag.NewFlagSet("mha sched run", flag.ExitOnError)
	file := fs.String("f", "", "schedule file (text or JSON; - for stdin)")
	fs.Parse(args)
	s, err := loadSched(*file)
	if err != nil {
		return err
	}
	prm := netmodel.Thor()
	if _, err := sched.Analyze(s, prm); err != nil {
		return fmt.Errorf("refusing to run an invalid schedule:\n%v", err)
	}
	// Real-payload execution with byte verification against the
	// allgather contract of the payload oracle.
	w := mpi.New(mpi.Config{Topo: s.Topo, Params: prm})
	n := s.Topo.Size()
	m := s.Msg
	bad := 0
	err = w.Run(func(p *mpi.Proc) {
		send := mpi.NewBuf(m)
		for i := range send.Data() {
			send.Data()[i] = compose.PatternByte(0, p.Rank(), i)
		}
		recv := mpi.NewBuf(n * m)
		sched.Execute(p, w, s, send, recv)
		for i, b := range recv.Data() {
			if b != compose.ExpectByte(compose.Allgather, 0, n, m, p.Rank(), i/m, i%m) {
				bad++
				break
			}
		}
	})
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("schedule %s: %d of %d ranks ended with wrong bytes", s.Name, bad, n)
	}
	fmt.Printf("schedule %s on %v: %d ranks verified, makespan %v\n",
		s.Name, s.Topo, n, sim.Duration(w.Makespan()))
	return nil
}

func schedSearch(args []string) error {
	fs := flag.NewFlagSet("mha sched search", flag.ExitOnError)
	msg := fs.Int("msg", 256<<10, "message size per rank in bytes")
	out := fs.String("o", "", "write the winning schedule here (default: report only)")
	asJSON := fs.Bool("json", false, "emit the winner as JSON instead of text")
	mkTopo := layoutFlags(fs)
	fs.Parse(args)
	topo, err := mkTopo()
	if err != nil {
		return err
	}
	prm := netmodel.Thor()
	res, err := sched.Synthesize(topo, prm, *msg, sched.SynthOptions{})
	if err != nil {
		return err
	}
	// Rows the bound ruled out and a pick priced exactly at its cost were
	// never simulated; simulate them here.
	if err := res.Measure(topo, prm, nil); err != nil {
		return err
	}
	fmt.Printf("search on %v, msg %d B: %d seeds priced, %d abandoned\n", topo, *msg, len(res.Seeds), res.Search.Abandoned)
	fmt.Printf("%-16s %14s %14s\n", "lowered", "analyzer", "simulated")
	for _, c := range res.Lowered {
		fmt.Printf("%-16s %14v %14v\n", c.Name, c.Cost, c.Makespan)
	}
	fmt.Printf("best: %s  analyzer %v  simulated %v\n", res.Best.Name, res.Best.Cost, res.Best.Makespan)
	fmt.Printf("effort: %v\n", res.Search)
	if *out != "" {
		return emitSched(res.Best.Sched, *out, *asJSON)
	}
	return nil
}

func schedExport(args []string) error {
	fs := flag.NewFlagSet("mha sched export", flag.ExitOnError)
	file := fs.String("f", "", "schedule file (text or JSON; - for stdin)")
	out := fs.String("o", "", "output file (default stdout)")
	asJSON := fs.Bool("json", false, "emit JSON (default: the canonical text form)")
	fs.Parse(args)
	s, err := loadSched(*file)
	if err != nil {
		return err
	}
	return emitSched(s, *out, *asJSON)
}
