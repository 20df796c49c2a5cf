// Package a imports package b, which imports a: the loader must refuse
// the cycle rather than recurse forever.
package a

import "mha/internal/lint/testdata/src/cycle/b"

// X reads b.Y.
var X = b.Y
