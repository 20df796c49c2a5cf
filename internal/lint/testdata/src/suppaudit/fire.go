// Package suppaudit is the fixture for the suppression audit: a valid
// //lint:ignore that matches no finding is dead weight that will
// silently swallow a future, different finding on its line.
package suppaudit

import "time"

// The directive below suppressed a wall-clock read once; the code moved
// on and nothing on its line or the next fires detnow anymore.
//
//lint:ignore detnow this once suppressed a wall-clock read
var quantum = int64(7)

// stale on a live line: the next line fires detnow, but only the
// detnow directive matches it — the railpin one suppresses nothing.
//
//lint:ignore railpin nothing here pins a rail
func stamp() int64 {
	//lint:ignore detnow fixture exercises a live suppression
	return time.Now().UnixNano() + quantum
}

// An init is a root of the unreached pass, so the directive above it
// suppresses nothing.
//
//lint:ignore unreached this once hid an uncalled function
func init() { _ = stamp() }
