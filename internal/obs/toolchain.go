package obs

import (
	"runtime"
	"runtime/debug"
)

// Toolchain reports the Go release the running binary was built with
// and the -gcflags it was compiled under ("" when none were set).
// Perf-trajectory reports (fexbench -statsjson, fexload -slojson)
// embed both so counter and latency diffs between two reports are
// attributable to toolchain changes, not just code changes (DESIGN.md §14).
func Toolchain() (goVersion, gcflags string) {
	goVersion = runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return goVersion, ""
	}
	if bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		if s.Key == "-gcflags" {
			gcflags = s.Value
		}
	}
	return goVersion, gcflags
}
