package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Unit is one analyzable, type-checked set of files: a package together
// with its in-package test files, or an external _test package.
type Unit struct {
	// Dir is the directory holding the unit's files.
	Dir string
	// Path is the unit's import path (external test units get the
	// conventional "_test" suffix).
	Path string
	// Fset, Files, Pkg, Info carry syntax and type information.
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker diagnostics (empty on a healthy
	// tree; the driver treats them as load failures).
	TypeErrors []error

	ignores map[string][]ignoreDirective
}

// Loader parses and type-checks the packages that `go list` finds for a
// set of patterns, as `go vet` sees them: each package with its
// in-package test files, plus its external _test package. The go
// command resolves the patterns, applies build constraints and compiles
// every dependency; the loader type-checks each unit from source against
// the compiler's export data for its imports.
//
// The loader is safe for concurrent use, and Load type-checks its units
// in parallel.
type Loader struct {
	Fset *token.FileSet

	dir        string
	moduleRoot string
}

// NewLoader returns a loader that resolves patterns from dir, inside the
// module that `go env GOMOD` names there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	out, err := goCommand(abs, "env", "GOMOD")
	if err != nil {
		return nil, err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
	}
	return &Loader{Fset: token.NewFileSet(), dir: abs, moduleRoot: filepath.Dir(gomod)}, nil
}

// ModuleRoot returns the absolute module root directory.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// goCommand runs the go command in dir and returns its standard output.
func goCommand(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %v: %s", args[0], err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// listedPackage is the part of a `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	DepOnly    bool
	ForTest    string
	Error      *struct{ Err string }
}

// unitPath strips the " [p.test]" suffix `go list -test` gives the
// packages it compiles for p's test.
func unitPath(importPath string) string {
	path, _, _ := strings.Cut(importPath, " ")
	return path
}

// Load lists the patterns ("./..." by default), relative to the loader's
// directory, and returns one Unit per package variant: p with its
// in-package tests in place of p, and p's external test package p_test.
// A package that does not compile fails the load with the compiler's
// message. Unit order is deterministic regardless of scheduling.
func (l *Loader) Load(patterns ...string) ([]*Unit, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,ImportMap,DepOnly,ForTest,Error"}, patterns...)
	out, err := goCommand(l.dir, args...)
	if err != nil {
		return nil, err
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list: %w", err)
		}
		pkgs = append(pkgs, p)
	}

	export := make(map[string]string, len(pkgs))
	tested := make(map[string]bool) // p has a variant with in-package tests
	for _, p := range pkgs {
		if p.Error != nil {
			// Dependencies come first, so this is the package at fault.
			msg := strings.TrimSpace(p.Error.Err)
			if header, rest, ok := strings.Cut(msg, "\n"); ok && strings.HasPrefix(header, "# ") {
				msg = rest
			}
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, msg)
		}
		export[p.ImportPath] = p.Export
		if p.ForTest != "" && unitPath(p.ImportPath) == p.ForTest {
			tested[p.ForTest] = true
		}
	}
	var listed []*listedPackage
	for _, p := range pkgs {
		path := unitPath(p.ImportPath)
		switch {
		case p.DepOnly || len(p.GoFiles) == 0 || strings.HasSuffix(p.ImportPath, ".test"):
			// A dependency, a directory of external tests only, or the
			// generated main package of a test binary.
		case p.ForTest == "" && !tested[path], // p, which has no in-package tests
			path == p.ForTest,         // p [p.test]
			path == p.ForTest+"_test": // p_test [p.test]
			listed = append(listed, p)
		}
	}
	sort.Slice(listed, func(i, j int) bool {
		a, b := listed[i], listed[j]
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		return a.ImportPath < b.ImportPath
	})

	units := make([]*Unit, len(listed))
	errs := make([]error, len(listed))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range listed {
		wg.Add(1)
		go func(i int, p *listedPackage) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			units[i], errs[i] = l.check(p, export)
		}(i, p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return units, nil
}

// check parses one listed package and type-checks it, resolving each
// import through the package's ImportMap to the export data `go list`
// reported for it.
func (l *Loader) check(p *listedPackage, export map[string]string) (*Unit, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		if export[path] == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(export[path])
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	u := &Unit{
		Dir:     p.Dir,
		Path:    unitPath(p.ImportPath),
		Fset:    l.Fset,
		Files:   files,
		Info:    info,
		ignores: make(map[string][]ignoreDirective),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(l.Fset, "gc", lookup),
		Error:    func(err error) { u.TypeErrors = append(u.TypeErrors, err) },
	}
	u.Pkg, _ = conf.Check(u.Path, l.Fset, files, info) // errors collected via conf.Error
	for _, f := range files {
		u.ignores[l.Fset.Position(f.Pos()).Filename] = parseIgnores(l.Fset, f)
	}
	return u, nil
}
