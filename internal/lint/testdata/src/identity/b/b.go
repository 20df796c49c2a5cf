// Package b imports package a and calls a.Double.
package b

import "mha/internal/lint/testdata/src/identity/a"

// Quadruple calls a.Double twice.
func Quadruple(x int) int { return a.Double(a.Double(x)) }
