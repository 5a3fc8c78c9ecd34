package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// runWithFacts executes a single analyzer's unit pass over units and
// returns the diagnostics plus the raw facts it exported — the
// fact-level view that Run folds away into the module phase.
func runWithFacts(a *Analyzer, units []*Unit) ([]Diagnostic, []Fact) {
	var diags []Diagnostic
	var facts []Fact
	for _, u := range units {
		pass := &Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			PkgPath:  u.Path,
			unit:     u,
			out:      &diags,
			facts:    &facts,
		}
		a.Run(pass)
	}
	return diags, facts
}

// TestFactExport pins the cross-package fact plumbing on apiparity's
// Config ⇄ flag join: the lib unit exports one config-field fact per
// exported Config field, the cmd unit one config-field-set fact per
// field it wires, and the module phase joins the two by value across
// the package boundary.
func TestFactExport(t *testing.T) {
	units := loadFixture(t, "apiparity")
	_, facts := runWithFacts(APIParity, units)

	const wired = "fexipro/internal/lint/testdata/src/apiparity/lib.Config.Wired"
	var field, set *Fact
	for i := range facts {
		if f := &facts[i]; f.Value == wired {
			switch f.Name {
			case factConfigField:
				field = f
			case factConfigSet:
				set = f
			}
		}
	}
	if field == nil || set == nil {
		t.Fatalf("Config.Wired: field fact %v, set fact %v; want both exported", field, set)
	}
	if field.Analyzer != APIParity.Name {
		t.Fatalf("field fact attributed to %q", field.Analyzer)
	}
	if field.Pos.Line == 0 || filepath.Base(field.Pos.Filename) != "lib.go" {
		t.Fatalf("field fact has unresolved position %+v", field.Pos)
	}
	if dir := filepath.Dir(field.Pos.Filename); dir == filepath.Dir(set.Pos.Filename) {
		t.Fatalf("field and set facts both from %s, want two packages", dir)
	}

	// The module phase joins them: the wired field is silent, the
	// unwired one is exactly the diagnostic the join exists for.
	found := false
	for _, d := range Run(units, []*Analyzer{APIParity}) {
		if strings.Contains(d.Message, "Config.Wired") {
			t.Fatalf("wired field still reported: %s", d)
		}
		if strings.Contains(d.Message, "Config.Unwired is not set") {
			found = true
		}
	}
	if !found {
		t.Fatal("unwired field not reported by the module phase")
	}
}

// TestRunTimed checks the -timings data source: one Timing per
// analyzer in registration order, with identical diagnostics to Run.
func TestRunTimed(t *testing.T) {
	units := loadFixture(t, "lockorder")
	analyzers := []*Analyzer{Locks, GoroutineLife}
	diags, timings := RunTimed(units, analyzers)
	if len(timings) != len(analyzers) {
		t.Fatalf("got %d timings for %d analyzers", len(timings), len(analyzers))
	}
	for i, a := range analyzers {
		if timings[i].Analyzer != a.Name {
			t.Fatalf("timing %d is %q, want %q (registration order)", i, timings[i].Analyzer, a.Name)
		}
		if timings[i].Unit < 0 || timings[i].Module < 0 {
			t.Fatalf("negative duration in %+v", timings[i])
		}
	}
	// Locks has a module phase that did real work on this fixture.
	if timings[0].Module == 0 {
		t.Fatal("locks module phase reported zero duration")
	}
	plain := Run(units, analyzers)
	if len(plain) != len(diags) {
		t.Fatalf("Run and RunTimed disagree: %d vs %d diagnostics", len(plain), len(diags))
	}
}
