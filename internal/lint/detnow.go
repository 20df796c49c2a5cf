package lint

import (
	"go/ast"
	"go/types"
)

// detnow forbids wall-clock time and the process-global math/rand source
// in simulator code. The engine guarantees bit-identical replays only if
// every input is part of the scenario: time must be sim virtual time, and
// randomness must flow from an explicit seed through rand.New, so the
// same seed always yields the same trace hash.
var detnowPass = &Pass{
	Name: "detnow",
	Doc:  "forbid wall-clock time and unseeded global math/rand in simulator code",
	Scope: scopeIn(
		"internal/sim", "internal/mpi", "internal/sched",
		"internal/cluster", "internal/collectives", "internal/explore",
		"internal/compose", "internal/fabric",
	),
	Run: runDetnow,
}

// detnowTime lists the time package's nondeterministic entry points.
// Constants (time.Millisecond, ...) and pure converters stay legal.
var detnowTime = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// detnowRandOK lists the math/rand (and v2) package-level functions that
// construct explicitly seeded generators rather than touching the global
// source.
var detnowRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors, should the tree ever migrate.
	"NewPCG": true, "NewChaCha8": true,
}

func runDetnow(u *Unit) []Diagnostic {
	var out []Diagnostic
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch pkg, name := nondet(u, sel); pkg {
			case "time":
				out = append(out, diag(u, sel, "detnow",
					"time.%s reads the wall clock; simulator code must use sim virtual time (Proc.Now/Sleep)", name))
			case "rand":
				out = append(out, diag(u, sel, "detnow",
					"rand.%s uses the process-global source; draw from a seeded rand.New(rand.NewSource(seed)) so runs replay bit-identically", name))
			}
			return true
		})
	}
	return out
}

// nondet reports whether sel names a function that reads the wall clock
// ("time") or draws from the process-global math/rand source ("rand"),
// and which function. detnow forbids both, and purity counts them as
// effects.
func nondet(u *Unit, sel *ast.SelectorExpr) (pkg, name string) {
	base, _ := sel.X.(*ast.Ident)
	pn, ok := u.Info.Uses[base].(*types.PkgName)
	// Type and constant references (rand.Rand, time.Duration,
	// time.Millisecond) are deterministic; only the functions that
	// touch the wall clock or the global source matter.
	if _, isType := u.Info.Uses[sel.Sel].(*types.TypeName); !ok || isType {
		return "", ""
	}
	switch name = sel.Sel.Name; pn.Imported().Path() {
	case "time":
		if detnowTime[name] {
			return "time", name
		}
	case "math/rand", "math/rand/v2":
		if !detnowRandOK[name] {
			return "rand", name
		}
	}
	return "", ""
}
