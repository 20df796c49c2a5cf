//go:build sweep

package sched

import (
	"testing"

	"mha/internal/netmodel"
)

// TestLocalVerdictsMatchFullAnalysisTo32 is TestLocalVerdictsMatchFullAnalysis
// on the block-layout machines of 17 to 32 ranks. That is five seconds more
// than tier-1 should spend, so CI runs it in a step of its own:
//
//	go test -tags sweep ./internal/sched -run TestLocalVerdictsMatchFullAnalysisTo32
func TestLocalVerdictsMatchFullAnalysisTo32(t *testing.T) {
	tally, parents := checkLocalVerdictSweep(t, netmodel.Thor(), 17, 32)
	t.Logf("%d parents; %d fusions rejected locally, %d priced (%d of a step with copies)",
		parents, tally.rejected, tally.priced, tally.pricedFusionOfCopies)
}
