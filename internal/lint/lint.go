// Package lint is fexlint's engine: a stdlib-only whole-program
// static-analysis framework (go/ast + go/parser + go/types, no external
// dependencies) with a suite of project-specific analyzers that
// mechanically enforce FEXIPRO's exactness, telemetry, and concurrency
// invariants:
//
//   - floatcmp:      no ==/!= between floating-point expressions outside
//     the allowlisted exact-zero idiom (Theorems 1–4 demand conservative
//     bounds, and float equality is the classic way "exact" goes wrong);
//   - rngseed:       no math/rand global-source calls, and no
//     non-deterministic seeds in tests/benchmarks (EXPERIMENTS.md
//     reproducibility);
//   - errcheck:      no silently discarded error results outside the
//     explicit `_ =` and `defer Close` idioms;
//   - locks:         the mutex contracts, over one lock record per
//     function body and function literal — balanced Lock/Unlock and no
//     blocking calls (channel ops, I/O, slog, Search*Context) while
//     holding a mutex; a whole-program lock-order graph over the static
//     call graph, where every nested acquisition must be declared with
//     //fex:lockorder A < B, contradictions of the declared hierarchy
//     are flagged, and cycles are reported as deadlock candidates with
//     the full acquisition chain; and //fex:guard mu field contracts,
//     with the annotation suggested for fields whose every write
//     already holds exactly one mutex;
//   - hotalloc:      no allocations, interface boxing, or closure
//     captures inside loops marked //fex:hot;
//   - apiparity:     exported Search ⇄ SearchContext (and SearchAbove ⇄
//     SearchAboveContext) parity on every searcher, and every
//     server/experiments Config field must be wired to a cmd flag.
//   - goroutinelife: every go statement needs a statically provable
//     termination/join edge (WaitGroup Done, ctx.Done exit arm,
//     closed-channel range, or bounded body), plus leak-on-error
//     checks around wg.Add.
//
// Copies of sync and sync/atomic values are go vet's copylocks check,
// which `make check` and CI run beside fexlint. Cancellable scan loops and
// the stage-counter schema are checked at run time instead: every
// method's scans by the cancellation battery in internal/searchtest, its
// counters by the registry test in internal/method, and metric names by
// the obs registry.
//
// The driver type-checks the units `go list` reports in parallel, runs each
// analyzer's per-unit pass concurrently across units, then runs an
// optional whole-program module phase over the facts the unit passes
// exported (Pass.ExportFact → Analyzer.RunModule).
//
// The one way to suppress a diagnostic is a line comment
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the flagged line or on the line immediately above it. It
// must name registered analyzers and give a reason; a directive that
// does not silences nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	File     string
	Line     int
	Col      int
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Fact is one unit of cross-package knowledge exported by a per-unit
// pass and consumed by module-phase analysis (Analyzer.RunModule).
// Facts are deliberately stringly-typed — (Name, Value) pairs at a
// position — which keeps them trivially mergeable and sortable across
// parallel unit passes.
type Fact struct {
	// Analyzer is the exporting analyzer's name; module passes only see
	// their own facts.
	Analyzer string
	// Name classifies the fact (e.g. "config-field", "config-field-set").
	Name string
	// Value carries the payload (e.g. a type name or field key).
	Value string
	// Pos is the resolved source position the fact was exported at;
	// module-phase diagnostics report here.
	Pos token.Position
}

// Analyzer is one named check run over a type-checked package, with an
// optional whole-program phase over exported facts.
type Analyzer struct {
	// Name is the identifier used in -analyzers and //lint:ignore.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the pass and reports diagnostics via pass.Reportf.
	Run func(pass *Pass)
	// RunModule, when non-nil, runs once after every unit pass has
	// completed, over the facts this analyzer exported. Cross-package
	// contracts (test-coverage requirements, flag parity) live here.
	RunModule func(mp *ModulePass)
}

// Pass is one (analyzer, unit) execution. It carries the syntax, type
// information, and reporting sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path of the unit being analyzed.
	PkgPath string

	unit  *Unit
	out   *[]Diagnostic
	facts *[]Fact
}

// Reportf records a diagnostic at pos unless an ignore directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.unit.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.out = append(*p.out, newDiagnostic(p.Analyzer.Name, position, format, args...))
}

// newDiagnostic formats one finding at a resolved position.
func newDiagnostic(analyzer string, pos token.Position, format string, args ...any) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      pos,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// ExportFact publishes a (name, value) fact at pos for this analyzer's
// module phase.
func (p *Pass) ExportFact(pos token.Pos, name, value string) {
	*p.facts = append(*p.facts, Fact{
		Analyzer: p.Analyzer.Name,
		Name:     name,
		Value:    value,
		Pos:      p.Fset.Position(pos),
	})
}

// TypeOf returns the type of expr, or nil when unknown.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if tv, ok := p.Info.Types[expr]; ok {
		return tv.Type
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// nonTestFiles drops the _test.go files of a unit.
func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	var out []*ast.File
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// ModulePass is the whole-program phase of one analyzer: it sees the
// facts every unit pass exported (its own only) and all loaded units,
// and reports diagnostics at fact positions with the same //lint:ignore
// suppression semantics as unit passes.
type ModulePass struct {
	Analyzer *Analyzer
	// Units are all loaded units, in deterministic order.
	Units []*Unit
	// Facts are the facts exported by this analyzer's unit passes, in
	// deterministic (unit, export) order.
	Facts []Fact

	byFile map[string]*Unit
	out    *[]Diagnostic
}

// Reportf records a module-phase diagnostic at a resolved position.
func (mp *ModulePass) Reportf(pos token.Position, format string, args ...any) {
	if u := mp.byFile[pos.Filename]; u != nil && u.suppressed(mp.Analyzer.Name, pos) {
		return
	}
	*mp.out = append(*mp.out, newDiagnostic(mp.Analyzer.Name, pos, format, args...))
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	line      int
	analyzers []string
}

// parseIgnores extracts the //lint:ignore directives of a file that
// suppress anything: those of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// naming registered analyzers only and giving a non-empty reason. A
// directive missing either silences nothing, so its findings stay
// reported.
func parseIgnores(fset *token.FileSet, file *ast.File) []ignoreDirective {
	registered := make(map[string]bool)
	for _, a := range All() {
		registered[a.Name] = true
	}
	var out []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
			if len(fields) < 3 || fields[0] != "lint:ignore" {
				continue
			}
			names := strings.Split(fields[1], ",")
			if !allRegistered(registered, names) {
				continue
			}
			out = append(out, ignoreDirective{line: fset.Position(c.Pos()).Line, analyzers: names})
		}
	}
	return out
}

// allRegistered reports whether every name is a registered analyzer.
func allRegistered(registered map[string]bool, names []string) bool {
	for _, n := range names {
		if !registered[n] {
			return false
		}
	}
	return true
}

// suppressed reports whether an ignore directive in the unit covers the
// given analyzer at the given position (same line, or the directive is
// on the line immediately above).
func (u *Unit) suppressed(analyzer string, pos token.Position) bool {
	for _, d := range u.ignores[pos.Filename] {
		if (d.line == pos.Line || d.line == pos.Line-1) && slices.Contains(d.analyzers, analyzer) {
			return true
		}
	}
	return false
}

// Run executes the analyzers over every unit — unit passes in parallel,
// then each analyzer's module phase over the exported facts — and
// returns the combined, position-sorted diagnostics. Output is
// deterministic regardless of scheduling: per-unit results land in
// per-unit slots that are merged in unit order before the final sort.
func Run(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(units, analyzers)
	return diags
}

// Timing is one analyzer's cost over a RunTimed call. Unit is CPU time
// summed across per-unit passes (they run in parallel, so this exceeds
// the wall-clock share); Module is the single-threaded module phase.
type Timing struct {
	Analyzer string
	Unit     time.Duration
	Module   time.Duration
}

// RunTimed is Run with a per-analyzer cost breakdown, the data behind
// fexlint's -timings flag and the CI latency budget.
func RunTimed(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	type slot struct {
		diags []Diagnostic
		facts []Fact
		durs  []time.Duration
	}
	slots := make([]slot, len(units))

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, u := range units {
		wg.Add(1)
		go func(i int, u *Unit) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := &slots[i]
			s.durs = make([]time.Duration, len(analyzers))
			for ai, a := range analyzers {
				pass := &Pass{
					Analyzer: a,
					Fset:     u.Fset,
					Files:    u.Files,
					Pkg:      u.Pkg,
					Info:     u.Info,
					PkgPath:  u.Path,
					unit:     u,
					out:      &s.diags,
					facts:    &s.facts,
				}
				start := time.Now()
				a.Run(pass)
				s.durs[ai] = time.Since(start)
			}
		}(i, u)
	}
	wg.Wait()

	timings := make([]Timing, len(analyzers))
	for ai, a := range analyzers {
		timings[ai].Analyzer = a.Name
		for i := range slots {
			timings[ai].Unit += slots[i].durs[ai]
		}
	}

	var out []Diagnostic
	factsByAnalyzer := make(map[string][]Fact)
	for i := range slots {
		out = append(out, slots[i].diags...)
		for _, f := range slots[i].facts {
			factsByAnalyzer[f.Analyzer] = append(factsByAnalyzer[f.Analyzer], f)
		}
	}

	byFile := make(map[string]*Unit)
	for _, u := range units {
		for _, f := range u.Files {
			byFile[u.Fset.Position(f.Pos()).Filename] = u
		}
	}
	for ai, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Units:    units,
			Facts:    factsByAnalyzer[a.Name],
			byFile:   byFile,
			out:      &out,
		}
		start := time.Now()
		a.RunModule(mp)
		timings[ai].Module = time.Since(start)
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, timings
}

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		RNGSeed,
		ErrCheck,
		Locks,
		HotAlloc,
		APIParity,
		GoroutineLife,
	}
}

// ByName resolves a comma-separated analyzer list ("" selects all).
func ByName(csv string) ([]*Analyzer, error) {
	if strings.TrimSpace(csv) == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
