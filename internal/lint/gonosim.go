package lint

import (
	"go/ast"
)

// gonosim forbids raw `go` statements in simulator-process code. The
// engine owns concurrency: it serializes process execution and orders
// simultaneous events by sequence number, which is what makes traces
// hash-identical across runs. A goroutine the engine does not know
// about races the virtual clock and destroys that guarantee — sim
// processes must be spawned with Engine.Spawn and communicate through
// mailboxes/counters. The engine itself starts none: its processes are
// coroutines of the goroutine that calls Run.
var gonosimPass = &Pass{
	Name: "gonosim",
	Doc:  "no raw goroutines in sim-proc code; use Engine.Spawn and mailboxes",
	Scope: scopeIn(
		"internal/sim", "internal/mpi", "internal/sched", "internal/cluster",
		"internal/collectives", "internal/core", "internal/verify",
		"internal/explore", "internal/compose", "internal/fabric",
	),
	Run: runGonosim,
}

func runGonosim(u *Unit) []Diagnostic {
	var out []Diagnostic
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, diag(u, g, "gonosim",
					"raw goroutine bypasses the engine's deterministic scheduler; spawn sim processes with Engine.Spawn and coordinate via mailboxes"))
			}
			return true
		})
	}
	return out
}
