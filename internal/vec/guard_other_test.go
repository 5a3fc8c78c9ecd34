//go:build !linux

package vec

import "testing"

// guardedFloors returns n zeroed floors. Only the Linux one ends at an
// unreadable page.
func guardedFloors(_ testing.TB, n int) []int8 { return make([]int8, n) }
