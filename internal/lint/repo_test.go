package lint

import (
	"path/filepath"
	"testing"
)

// TestRepoIsLintClean runs every analyzer over the whole module and
// requires zero diagnostics. This is the executable form of the
// project's invariant: the tree must stay fexlint-clean, with any
// deliberate exception carrying an inline //lint:ignore justification.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint is not a short test")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load(filepath.Join(root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("loaded no packages from module root")
	}
	for _, u := range units {
		for _, e := range u.TypeErrors {
			t.Errorf("type error in %s: %v", u.Path, e)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	diags := Run(units, All())
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestPartialLintIsClean lints internal/snap alone. The module phase
// then sees that package's units only, so its //fex:lockorder
// declaration naming faults.Hook.mu, a lock of a package not loaded,
// must not be reported as stale.
func TestPartialLintIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load("./internal/snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(units, All()) {
		t.Errorf("partial lint not clean: %s", d)
	}
}
