package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderParallelImports runs two Load calls on one loader from
// concurrent goroutines; under -race this exercises the file set they
// share and each call's parallel per-unit type checking.
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

// TestLoadResolvesPatternsFromItsDir checks that a relative pattern is
// resolved from the directory given to NewLoader, not from the module
// root: "." there is that directory's package alone.
func TestLoadResolvesPatternsFromItsDir(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "apiparity", "lib"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load(".")
	if err != nil {
		t.Fatal(err)
	}
	const want = "fexipro/internal/lint/testdata/src/apiparity/lib"
	if len(units) != 1 || units[0].Path != want || units[0].Dir != dir {
		for _, u := range units {
			t.Logf("loaded %s from %s", u.Path, u.Dir)
		}
		t.Fatalf("Load(\".\") from %s gave %d units, want only %s", dir, len(units), want)
	}
}

// TestLoadFailsOnCompileError loads a fixture whose package bad does not
// compile and whose package user imports it: the load fails, names bad,
// and carries the compiler's message once, not once per importer.
func TestLoadFailsOnCompileError(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "broken"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load("./...")
	if err == nil {
		t.Fatalf("Load succeeded with %d units on a package that does not compile", len(units))
	}
	msg := err.Error()
	if !strings.Contains(msg, "fexipro/internal/lint/testdata/src/broken/bad") {
		t.Errorf("error does not name the package at fault: %s", msg)
	}
	if n := strings.Count(msg, `cannot use "not an int"`); n != 1 {
		t.Errorf("compiler message appears %d times, want once: %s", n, msg)
	}
}

// TestLoadAppliesBuildConstraints checks that internal/vec's unit holds
// exactly one of its kernel files: kernels_amd64.go on amd64,
// kernels_other.go (//go:build !amd64) elsewhere.
func TestLoadAppliesBuildConstraints(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load("./internal/vec")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if u.Path != "fexipro/internal/vec" {
			continue
		}
		var kernels []string
		for _, f := range u.Files {
			switch name := filepath.Base(u.Fset.Position(f.Pos()).Filename); name {
			case "kernels_amd64.go", "kernels_other.go":
				kernels = append(kernels, name)
			}
		}
		if len(kernels) != 1 {
			t.Fatalf("internal/vec unit holds kernel files %v, want exactly one", kernels)
		}
		return
	}
	t.Fatal("no fexipro/internal/vec unit loaded")
}
