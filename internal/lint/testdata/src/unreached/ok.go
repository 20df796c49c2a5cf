// Package main is the unreached fixture: fire.go holds what no root
// reaches, ok.go what main, init, a package-level table, an interface and
// a generic receiver do.
package main

import "fmt"

func main() {
	var sh shape = square{side: 2}
	fmt.Println(sh.area(), label("x"), table["one"](), fromInit, stack[int]{}.push(1))
}

var fromInit int

func init() { fromInit = initOnly() }

// initOnly is reached from init alone.
func initOnly() int { return 3 }

// table is a package-level table of funcs: what it refers to is a root.
var table = map[string]func() int{"one": tabled}

func tabled() int { return 1 }

type shape interface{ area() int }

type square struct{ side int }

// area is reached only through the shape interface.
func (s square) area() int { return s.side * s.side }

type label string

// String is reached only through fmt.Stringer, an interface of an import.
func (l label) String() string { return string(l) }

// stack is generic: main calls push on an instantiation, whose method
// object is not the declared one.
type stack[T any] struct{ items []T }

func (s stack[T]) push(v T) stack[T] {
	s.items = append(s.items, v)
	return s
}
