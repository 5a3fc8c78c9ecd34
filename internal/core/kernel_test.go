package core_test

import (
	"testing"

	"fexipro/internal/core"
)

// TestScanBatteryPortableKernel runs the scan battery a second time with
// the block kernel's plain-Go body — the one every target without AVX2
// runs — in place of the dispatched one: blocked loop against per-item
// loop, the golden snapshots and their recorded answers, the build
// identity, the theorems, and FuzzBlockedScan's seeds. (On a machine
// without AVX2 both runs are that body.)
func TestScanBatteryPortableKernel(t *testing.T) {
	core.PortableHeadKernel(t)
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"BlockedScanMatchesPerItem", core.TestBlockedScanMatchesPerItem},
		{"BlockedScanLengthBreakPositions", core.TestBlockedScanLengthBreakPositions},
		{"BlockedScanTies", core.TestBlockedScanTies},
		{"BlockedScanWordCounts", core.TestBlockedScanWordCounts},
		{"BlockedScanUnalignedRanges", core.TestBlockedScanUnalignedRanges},
		{"BlockedScanFaultHookPerItem", core.TestBlockedScanFaultHookPerItem},
		{"BlockedScanCancellation", core.TestBlockedScanCancellation},
		{"BlockedScanSeeds", func(t *testing.T) {
			for _, in := range core.BlockedScanSeeds() {
				core.CheckBlockedScanInput(t, in)
			}
		}},
		{"NonFiniteQueries", core.TestNonFiniteQueriesScanAlike},
		{"GoldenSnapshotBitIdentical", TestGoldenSnapshotBitIdentical},
		{"GoldenUnknownSectionForwardCompat", TestGoldenUnknownSectionForwardCompat},
		{"NewIndexMatchesSequentialReference", core.TestNewIndexMatchesSequentialReference},
		{"Theorem2IntegerBoundDominates", TestTheorem2IntegerBoundDominates},
		{"IntegerBoundTightness", TestIntegerBoundTightness},
		{"Theorem4OrderPreservation", TestTheorem4OrderPreservation},
		{"Equation6PartialIntegerBound", TestEquation6PartialIntegerBound},
		{"StrictComparisonsStillExact", TestStrictComparisonsStillExact},
	} {
		t.Run(tc.name, tc.test)
	}
}
