// Package b closes the import cycle with package a.
package b

import "mha/internal/lint/testdata/src/cycle/a"

// Y reads a.X.
var Y = a.X
