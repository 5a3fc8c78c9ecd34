package lint

import (
	"os"
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

// fixModule writes a temp module with one fixable boundflow threshold
// comparison and one fixable locks defer typo, returning its dir.
func fixModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixprobe\n\ngo 1.22\n")
	write("kern.go", `package fixprobe

import "context"

type SharedThreshold struct{ v float64 }

func (s *SharedThreshold) Floor(local float64) float64 { return s.v }

type Collector struct{ t float64 }

func (c *Collector) Threshold() float64     { return c.t }
func (c *Collector) Push(int, float64) bool { return true }

type Kern struct{ norms []float64 }

func (k *Kern) Shards() int             { return 1 }
func (k *Kern) Prepare(q []float64) any { return nil }

func (k *Kern) Scan(ctx context.Context, pq any, c *Collector, shared *SharedThreshold) error {
	t := shared.Floor(c.Threshold())
	for i, n := range k.norms {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n <= t {
			continue
		}
		c.Push(i, n)
	}
	return nil
}
`)
	write("locks.go", `package fixprobe

import "sync"

type guard struct{ mu sync.Mutex }

func (g *guard) do() {
	g.mu.Lock()
	defer g.mu.Lock()
}
`)
	return dir
}

// loadModule loads every unit of a standalone module rooted at dir.
func loadModule(t *testing.T, dir string) []*Unit {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load(dir + "/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		for _, e := range u.TypeErrors {
			t.Fatalf("type error: %v", e)
		}
	}
	return units
}

// TestFixIdempotency applies suggested fixes and verifies (a) the fixed
// tree re-lints clean of fixable diagnostics, and (b) a second -fix
// pass is a no-op, byte for byte.
func TestFixIdempotency(t *testing.T) {
	dir := fixModule(t)
	analyzers := []*Analyzer{BoundFlow, Locks}

	diags := Run(loadModule(t, dir), analyzers)
	var fixable int
	for _, d := range diags {
		if len(d.Fixes) > 0 {
			fixable++
		}
	}
	if fixable != 2 {
		t.Fatalf("expected 2 fixable diagnostics (threshold op + defer typo), got %d in %v", fixable, diags)
	}
	changed, err := ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 2 {
		t.Fatalf("expected 2 rewritten files, got %v", changed)
	}

	kern, err := os.ReadFile(filepath.Join(dir, "kern.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(kern), "if n < t {") {
		t.Fatalf("threshold fix not applied:\n%s", kern)
	}
	locks, err := os.ReadFile(filepath.Join(dir, "locks.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(locks), "defer g.mu.Unlock()") {
		t.Fatalf("defer-typo fix not applied:\n%s", locks)
	}

	// Second pass: the fixed tree must carry no fixable diagnostics and
	// ApplyFixes must not rewrite anything.
	diags2 := Run(loadModule(t, dir), analyzers)
	for _, d := range diags2 {
		if len(d.Fixes) > 0 {
			t.Fatalf("fixable diagnostic survived -fix: %s", d)
		}
	}
	changed2, err := ApplyFixes(diags2)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed2) != 0 {
		t.Fatalf("second -fix pass rewrote %v", changed2)
	}
	kern2, err := os.ReadFile(filepath.Join(dir, "kern.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(kern2) != string(kern) {
		t.Fatal("kern.go changed between -fix passes")
	}
}

// TestBaselineRoundTrip pins the baseline workflow: write findings,
// reload, suppress exactly those findings, and keep everything new.
func TestBaselineRoundTrip(t *testing.T) {
	units := loadFixture(t, "lockhold")
	diags := Run(units, []*Analyzer{Locks})
	if len(diags) == 0 {
		t.Fatal("lockhold fixture produced no diagnostics")
	}
	root, err := filepath.Abs(filepath.Join("testdata", "src", "lockhold"))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, root, diags); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) == 0 {
		t.Fatal("baseline round-trip lost all entries")
	}
	for _, e := range b.Entries {
		if filepath.IsAbs(e.File) || strings.Contains(e.File, "\\") {
			t.Fatalf("baseline file key %q is not module-relative slash form", e.File)
		}
	}

	kept, suppressed := b.Filter(root, diags)
	if len(kept) != 0 {
		t.Fatalf("full baseline kept %d diagnostics: %v", len(kept), kept)
	}
	if suppressed != len(diags) {
		t.Fatalf("suppressed %d of %d", suppressed, len(diags))
	}

	// A fresh diagnostic (message outside the baseline) must be kept.
	extra := diags[0]
	extra.Message = "definitely new finding"
	kept, suppressed = b.Filter(root, append(append([]Diagnostic{}, diags...), extra))
	if len(kept) != 1 || kept[0].Message != "definitely new finding" {
		t.Fatalf("baseline failed to keep the new finding: kept=%v", kept)
	}
	if suppressed != len(diags) {
		t.Fatalf("suppressed %d of %d", suppressed, len(diags))
	}

	// Count budgets: one entry absorbs Count findings, no more.
	two := []Diagnostic{diags[0], diags[0]}
	one := &Baseline{Entries: []BaselineEntry{{
		Analyzer: diags[0].Analyzer,
		File:     relPath(root, diags[0].File),
		Message:  diags[0].Message,
		Count:    1,
	}}}
	kept, suppressed = one.Filter(root, two)
	if len(kept) != 1 || suppressed != 1 {
		t.Fatalf("count budget: kept %d suppressed %d, want 1/1", len(kept), suppressed)
	}

	// Missing baseline file behaves as empty.
	empty, err := LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	kept, suppressed = empty.Filter(root, diags)
	if len(kept) != len(diags) || suppressed != 0 {
		t.Fatalf("missing baseline suppressed %d diagnostics", suppressed)
	}
}

// TestBaselineDead exercises rot detection: entries whose findings no
// longer fire surface through Dead with the unused count, and a fully
// live baseline reports none.
func TestBaselineDead(t *testing.T) {
	units := loadFixture(t, "lockhold")
	diags := Run(units, []*Analyzer{Locks})
	if len(diags) == 0 {
		t.Fatal("lockhold fixture produced no diagnostics")
	}
	root, err := filepath.Abs(filepath.Join("testdata", "src", "lockhold"))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, root, diags); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every entry is backed by a live finding: no rot.
	if dead := b.Dead(root, diags); len(dead) != 0 {
		t.Fatalf("fully live baseline reported dead entries: %v", dead)
	}

	// Drop one finding: exactly its entry (count 1) must go dead.
	dead := b.Dead(root, diags[1:])
	if len(dead) != 1 || dead[0].Count != 1 {
		t.Fatalf("dropping one finding: dead=%v, want one entry with count 1", dead)
	}
	gone := diags[0]
	if dead[0].Analyzer != gone.Analyzer || dead[0].Message != gone.Message ||
		dead[0].File != relPath(root, gone.File) {
		t.Fatalf("dead entry %+v does not match dropped finding %+v", dead[0], gone)
	}

	// An inflated count goes partially dead: only the unused portion.
	inflated := &Baseline{Entries: []BaselineEntry{{
		Analyzer: gone.Analyzer,
		File:     relPath(root, gone.File),
		Message:  gone.Message,
		Count:    3,
	}}}
	dead = inflated.Dead(root, []Diagnostic{gone})
	if len(dead) != 1 || dead[0].Count != 2 {
		t.Fatalf("inflated count: dead=%v, want one entry with count 2", dead)
	}

	// Empty and nil baselines never report rot.
	if dead := (&Baseline{}).Dead(root, nil); dead != nil {
		t.Fatalf("empty baseline reported dead entries: %v", dead)
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

// TestLoaderParallelImports loads the whole lint package tree twice
// through one loader from concurrent goroutines; under -race this
// exercises the single-flight import cache and the serialized stdlib
// importer.
func TestLoaderParallelImports(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := loader.Load(root + "/...")
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyFixesDedupeAndConflict pins the multi-analyzer fix contract:
// byte-identical edits from two analyzers collapse to one application,
// while overlapping edits with different replacements abort naming both
// analyzers and leave the file untouched.
func TestApplyFixesDedupeAndConflict(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	const orig = "hello world"
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	edit := func(off, end int, text string) []SuggestedFix {
		return []SuggestedFix{{Edits: []TextEdit{{File: path, Offset: off, End: end, NewText: text}}}}
	}

	// Two analyzers suggesting the exact same edit: applied once.
	same := []Diagnostic{
		{Analyzer: "alpha", File: path, Fixes: edit(0, 5, "HELLO")},
		{Analyzer: "beta", File: path, Fixes: edit(0, 5, "HELLO")},
	}
	changed, err := ApplyFixes(same)
	if err != nil {
		t.Fatalf("identical edits must dedupe, got: %v", err)
	}
	if len(changed) != 1 {
		t.Fatalf("changed = %v, want just %s", changed, path)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "HELLO world" {
		t.Fatalf("after dedupe apply: %q, want %q", got, "HELLO world")
	}

	// Same span, different replacement: a genuine conflict.
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	conflict := []Diagnostic{
		{Analyzer: "alpha", File: path, Fixes: edit(0, 5, "HELLO")},
		{Analyzer: "beta", File: path, Fixes: edit(0, 5, "goodbye")},
	}
	_, err = ApplyFixes(conflict)
	if err == nil {
		t.Fatal("conflicting fixes did not error")
	}
	for _, want := range []string{"conflicting fixes", "alpha", "beta"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict error %q does not mention %q", err, want)
		}
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != orig {
		t.Fatalf("conflict rewrote the file to %q", got)
	}

	// Overlapping (not identical) spans conflict too.
	overlap := []Diagnostic{
		{Analyzer: "alpha", File: path, Fixes: edit(0, 7, "X")},
		{Analyzer: "beta", File: path, Fixes: edit(5, 9, "Y")},
	}
	if _, err := ApplyFixes(overlap); err == nil || !strings.Contains(err.Error(), "conflicting fixes") {
		t.Fatalf("overlapping edits: got %v, want conflicting-fixes error", err)
	}
}
