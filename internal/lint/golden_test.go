package lint

import (
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fixtureCases maps each analyzer to its golden fixture package(s)
// under testdata/src. A case is named <analyzer>/<fixture> unless it
// sets group, which the cases of retired analyzers do: locks checks
// lockhold's, lockorder's and guardedby's fixtures, but each case keeps
// the retired analyzer's name.
var fixtureCases = []struct {
	analyzer *Analyzer
	fixture  string
	group    string
}{
	{FloatCmp, "floatcmp", ""},
	{RNGSeed, "rngseed", ""},
	{ErrCheck, "errcheck", ""},
	{Locks, "lockhold", "lockhold"},
	{Locks, "lockorder", "lockorder"},
	{GoroutineLife, "goroutinelife", ""},
	{Locks, "guardedby", "guardedby"},
	{HotAlloc, "hotalloc", ""},
	{APIParity, "apiparity", ""},
}

// want is one expectation parsed from a `// want` comment.
type want struct {
	file string // base name
	line int
	rx   *regexp.Regexp
	hit  bool
}

var wantRx = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// parseWants extracts `// want` expectations from a unit's files.
func parseWants(t *testing.T, u *Unit) []*want {
	t.Helper()
	var wants []*want
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				ms := wantRx.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						rx:   rx,
					})
				}
			}
		}
	}
	return wants
}

// loadFixture type-checks one fixture tree (recursively, so multi-
// package fixtures like apiparity's lib + cmd/apx layout work) and
// fails the test on any load or type error.
func loadFixture(t *testing.T, fixture string) []*Unit {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load(dir + "/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatalf("no units loaded from %s", dir)
	}
	for _, u := range units {
		for _, e := range u.TypeErrors {
			t.Errorf("fixture %s: type error: %v", fixture, e)
		}
	}
	return units
}

// TestGoldenFixtures checks every analyzer against its fixture: each
// `// want` comment must be matched by a diagnostic on that exact
// file:line, and no unexpected diagnostics may appear.
func TestGoldenFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		group := tc.analyzer.Name
		if tc.group != "" {
			group = tc.group
		}
		t.Run(group+"/"+tc.fixture, func(t *testing.T) {
			units := loadFixture(t, tc.fixture)
			var wants []*want
			for _, u := range units {
				wants = append(wants, parseWants(t, u)...)
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", tc.fixture)
			}
			diags := Run(units, []*Analyzer{tc.analyzer})
			if len(diags) == 0 {
				t.Fatalf("fixture %s produced no diagnostics; fexlint must exit non-zero on it", tc.fixture)
			}
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == filepath.Base(d.File) && w.line == d.Line && w.rx.MatchString(d.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("missing diagnostic: %s:%d expected match for %q", w.file, w.line, w.rx)
				}
			}
		})
	}
}

// TestExactDiagnosticPositions pins file:line:col for representative
// diagnostics, so position reporting cannot drift silently.
func TestExactDiagnosticPositions(t *testing.T) {
	units := loadFixture(t, "floatcmp")
	diags := Run(units, []*Analyzer{FloatCmp})
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	d := diags[0]
	if filepath.Base(d.File) != "floatcmp.go" || d.Line != 8 || d.Col != 7 {
		t.Fatalf("first floatcmp diagnostic at %s:%d:%d, want floatcmp.go:8:7", filepath.Base(d.File), d.Line, d.Col)
	}
	if d.Pos.Line != d.Line || d.Pos.Column != d.Col {
		t.Fatalf("Diagnostic.Pos (%d:%d) disagrees with Line/Col (%d:%d)", d.Pos.Line, d.Pos.Column, d.Line, d.Col)
	}
}

// TestSuppression verifies the //lint:ignore mechanism end to end on
// the floatcmp fixture: the directive that names floatcmp and gives a
// reason silences the equality under it, while a bare directive, the
// `*` wildcard, a directive with no reason and one naming an unknown
// analyzer each leave theirs reported.
func TestSuppression(t *testing.T) {
	units := loadFixture(t, "floatcmp")
	reported := make(map[int]bool)
	for _, d := range Run(units, []*Analyzer{FloatCmp}) {
		reported[d.Line] = true
	}
	suppresses := map[string]bool{ // directive → silences the line below
		"//lint:ignore floatcmp suppression mechanism under test": true,
		"//lint:ignore":                                false,
		"//lint:ignore * every analyzer":               false,
		"//lint:ignore floatcmp":                       false,
		"//lint:ignore flotcmp misspelt analyzer name": false,
	}
	seen := 0
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					want, ok := suppresses[c.Text]
					if !ok {
						continue
					}
					seen++
					line := u.Fset.Position(c.Pos()).Line
					if reported[line+1] == want {
						t.Errorf("%q: finding on line %d reported = %v, want %v", c.Text, line+1, reported[line+1], !want)
					}
				}
			}
		}
	}
	if seen != len(suppresses) {
		t.Fatalf("fixture carries %d of the %d directives under test", seen, len(suppresses))
	}
}

// TestAnalyzerRegistry pins the registered analyzers in order and
// checks All()/ByName round-trips.
func TestAnalyzerRegistry(t *testing.T) {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %d incompletely registered", i)
		}
		names[i] = a.Name
	}
	want := []string{"floatcmp", "rngseed", "errcheck", "locks", "hotalloc", "apiparity", "goroutinelife"}
	if !slices.Equal(names, want) {
		t.Fatalf("All() = %v, want %v", names, want)
	}
	sel, err := ByName("floatcmp, errcheck")
	if err != nil || len(sel) != 2 {
		t.Fatalf("ByName subset: %v %v", sel, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
	def, err := ByName("")
	if err != nil || len(def) != len(all) {
		t.Fatalf("ByName default: %v %v", def, err)
	}
}
