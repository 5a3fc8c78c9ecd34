package core_test

import (
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/vec"
)

// TestScanBatteryPortableKernel runs the scan battery a second time with
// vec's plain-Go kernel bodies — the ones every target without AVX2
// runs, the build's Gram and transform included — in place of the
// dispatched ones: blocked loop against per-item loop, the golden
// snapshots and their recorded answers, the build identity, the
// theorems, and FuzzBlockedScan's seeds. (On a machine without AVX2 both
// runs are those bodies.)
func TestScanBatteryPortableKernel(t *testing.T) {
	scanBattery(t, vec.Portable)
}

// TestScanBatteryAVX2Kernel runs the battery on the AVX2 bodies where the
// processor would select the AVX-512 VNNI head kernel: with the default
// run and the plain-Go one, every body the processor has runs it. Where
// AVX2 is the selected body the default run is this one, and where it is
// missing there is nothing to run; either way the test skips and says so.
func TestScanBatteryAVX2Kernel(t *testing.T) {
	if vec.Selected() == vec.AVX2 {
		t.Skip("the avx2 kernel body is the selected one: the default run covers it")
	}
	scanBattery(t, vec.AVX2)
}

func scanBattery(t *testing.T, body vec.Body) {
	core.ForceKernel(t, body)
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
