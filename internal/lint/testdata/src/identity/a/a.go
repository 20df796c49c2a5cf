// Package a is imported by package b; the loader must hand b the very
// package it checked as a's own unit.
package a

// Double is the function b calls.
func Double(x int) int { return 2 * x }
