package vec

import (
	"runtime"
	"sync"
)

// parallelMinRows is the input size below which preprocessing loops stay
// on the caller's goroutine. Under a few thousand rows there is little
// to share out: at d = 50 a whole build is then mostly the fixed d×d
// Jacobi (6 of 10 ms at 1024 rows). Measured on two cores, the split
// is no worse than even on a build of 4096 rows and takes 32 % off one
// of 16384, 39 % off one of 10⁵ (EXPERIMENTS.md, ISSUE 20;
// core's BenchmarkNewIndexThreshold).
const parallelMinRows = 4096

// RowWorkers returns how many goroutines ForRows splits a pass over n
// rows among: GOMAXPROCS of them, or one for a small input.
func RowWorkers(n int) int {
	if n < parallelMinRows {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// ForRows calls fn on consecutive row ranges [lo, hi) that cover [0, n)
// exactly once, one range per worker, and returns when all have. Ranges
// run concurrently, so fn may only write rows it was handed; a reduction
// over all rows has to be one whose result does not depend on the order
// it is folded in (max, min, lowest failing row) and fold under a lock.
// Inputs under parallelMinRows rows run as the single call fn(0, n) on
// the caller's goroutine.
func ForRows(n int, fn func(lo, hi int)) {
	p := RowWorkers(n)
	if p == 1 {
		fn(0, n)
		return
	}
	cuts := make([]int, p+1)
	for i := range cuts {
		cuts[i] = i * n / p
	}
	forRanges(cuts, fn)
}

// forRanges runs fn(cuts[i], cuts[i+1]) for every i, the first range on
// the caller's goroutine and each other one on its own, and waits.
func forRanges(cuts []int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	for i := 1; i+1 < len(cuts); i++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(cuts[i], cuts[i+1])
	}
	fn(cuts[0], cuts[1])
	wg.Wait()
}
