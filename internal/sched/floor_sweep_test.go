//go:build sweep

package sched

import "testing"

// TestFloorIsALowerBoundOnEverySeed is TestFloorIsALowerBound over every
// unbounded seed of boundGrid's full pools as well: 4 099 schedules, where the
// finalists alone are 557. That is over a second more than tier-1 should
// spend, so CI runs it in a step of its own:
//
//	go test -tags sweep ./internal/sched -run TestFloorIsALowerBoundOnEverySeed
func TestFloorIsALowerBoundOnEverySeed(t *testing.T) { checkFloors(t, true) }
