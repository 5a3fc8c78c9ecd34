// Package stagecounters is a fexlint golden fixture for the
// stagecounters analyzer.
package stagecounters

// Stats mirrors the shared per-query counter schema.
type Stats struct {
	Scanned          int
	PrunedByLength   int
	PrunedByMonotone int
}

// TotalPruned deliberately omits PrunedByMonotone.
func (s Stats) TotalPruned() int { // want `TotalPruned omits stage counter\(s\) PrunedByMonotone`
	return s.PrunedByLength
}

// StageCounters mirrors the exported telemetry schema.
type StageCounters struct {
	Scanned        int
	PrunedByLength int
	Pruned         int
}

func convertPartial(st Stats) StageCounters {
	return StageCounters{ // want `StageCounters literal omits field\(s\) Pruned`
		Scanned:        st.Scanned,
		PrunedByLength: st.PrunedByLength,
	}
}

func convertFull(st Stats) StageCounters {
	// Complete keyed literal: allowed.
	return StageCounters{
		Scanned:        st.Scanned,
		PrunedByLength: st.PrunedByLength,
		Pruned:         st.PrunedByLength + st.PrunedByMonotone,
	}
}

const (
	MetricGood    = "fexipro_scanned_items_total"
	MetricColons  = "fexipro:recorded:total" // colons are valid
	MetricLeading = "9leading_digit"         // want `violates the Prometheus naming grammar`
	MetricDash    = "fexipro-dash"           // want `violates the Prometheus naming grammar`
)

func reset(st *Stats, n int) {
	*st = Stats{}         // whole-struct reset: allowed
	st.PrunedByLength = n // want `plain assignment to stage counter`
}
