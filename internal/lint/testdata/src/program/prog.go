// Package program exercises the whole-program layer directly: the call
// graph (recursion, method values, methods of generic types), and the closure capture analysis
// (loop variables, outer accumulators). It is not a pass fixture — the
// program_test.go unit tests load it by name.
package program

// fact is directly recursive: the call graph keeps the self-edge, since
// recursion is a real cycle for the fixpoint analyses.
func fact(n int) int {
	if n <= 1 {
		return 1
	}
	return n * fact(n-1)
}

type Greeter struct{ prefix string }

func (g Greeter) Greet(s string) string { return g.prefix + s }

// useMethodValue references Greet without calling it; the reference is
// recorded as a conservative edge, since it is how a later dynamic call
// is formed.
func useMethodValue(g Greeter) func(string) string {
	return g.Greet
}

// pair is generic: a call of swap on an instantiation resolves to a method
// object of its own, whose Origin is the declared swap.
type pair[T any] struct{ a, b T }

func (p pair[T]) swap() pair[T] { return pair[T]{p.b, p.a} }

func useGeneric() pair[int] { return pair[int]{1, 2}.swap() }

// loopCaptures closes over the (per-iteration) loop variable and a
// (shared) outer accumulator.
func loopCaptures() []func() int {
	sum := 0
	var fns []func() int
	for i := 0; i < 3; i++ {
		fns = append(fns, func() int {
			sum += i
			return i
		})
	}
	return fns
}
