package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mha/internal/lint"
)

// runLint runs the project's static-analysis suite: stdlib-only passes
// that enforce the simulator's determinism and resource-discipline
// contracts at build time (see internal/lint and DESIGN.md §10, §15).
//
//	mha lint [-list] [-pass name[,name...]] [-json] [-baseline file]
//	         [-write-baseline file] [packages]
//
// Packages default to ./... . Exit status: 0 clean, 1 findings, 2 usage
// or load error. Findings can be suppressed per line with
// `//lint:ignore <pass> <reason>`; accepted findings can be parked in a
// baseline file instead, which CI diffs so only new findings fail the
// build. -json emits a byte-deterministic machine-readable report. The
// unreached pass runs only when the packages are the whole module; on a
// subset it is left out of the run and of the pass count.
func runLint(args []string) error {
	fs := flag.NewFlagSet("mha lint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the registered passes and exit")
	passFlag := fs.String("pass", "", "comma-separated subset of passes to run (default: all)")
	jsonFlag := fs.Bool("json", false, "emit findings as deterministic JSON on stdout")
	baselineFlag := fs.String("baseline", "", "baseline file of accepted findings; only new findings fail")
	writeBaseline := fs.String("write-baseline", "", "write the current findings to this baseline file and exit 0")
	fs.Parse(args)

	if *list {
		for _, p := range lint.Passes() {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		return nil
	}

	passes := lint.Passes()
	if *passFlag != "" {
		byName := map[string]*lint.Pass{}
		for _, p := range passes {
			byName[p.Name] = p
		}
		passes = passes[:0]
		for _, name := range strings.Split(*passFlag, ",") {
			p, ok := byName[name]
			if !ok {
				return usageError{fmt.Errorf("unknown pass %q (have %s)",
					name, strings.Join(lint.PassNames(), ", "))}
			}
			passes = append(passes, p)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := lint.Load(patterns)
	if err != nil {
		return usageError{err}
	}
	passes = lint.Judging(passes, units)
	diags := lint.Check(units, passes)

	if *writeBaseline != "" {
		if err := os.WriteFile(*writeBaseline, lint.FormatBaseline(diags), 0o644); err != nil {
			return usageError{err}
		}
		fmt.Fprintf(os.Stderr, "mha lint: wrote %d accepted finding(s) to %s\n", len(diags), *writeBaseline)
		return nil
	}

	accepted := 0
	if *baselineFlag != "" {
		data, err := os.ReadFile(*baselineFlag)
		if err != nil {
			return usageError{err}
		}
		var kept []lint.Diagnostic
		kept, acc := lint.ApplyBaseline(diags, lint.ParseBaseline(data))
		diags, accepted = kept, len(acc)
	}

	names := make([]string, 0, len(passes))
	for _, p := range passes {
		names = append(names, p.Name)
	}
	if *jsonFlag {
		os.Stdout.Write(lint.RenderJSON(names, diags))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mha lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	if !*jsonFlag {
		// The summary keeps the name of the retired mhalint binary, so
		// this tool's stdout stays byte-identical to what it printed.
		fmt.Printf("mhalint: %d packages, %d passes, no findings", len(units), len(passes))
		if accepted > 0 {
			fmt.Printf(" (%d baselined)", accepted)
		}
		fmt.Println()
	}
	return nil
}
