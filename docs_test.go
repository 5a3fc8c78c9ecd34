package fexipro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goDecls is what the module declares, read with go/parser: each
// package's top-level names (methods, and test functions, included) by
// package name, and each type's methods and fields by type name; and
// every file and directory by slash path from the module root.
type goDecls struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	paths   []string
}

func readGoDecls(t *testing.T) *goDecls {
	t.Helper()
	g := &goDecls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != "." && strings.HasPrefix(d.Name(), ".") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		g.paths = append(g.paths, path)
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			return nil
		}
		if g.pkgs[pkg] == nil {
			g.pkgs[pkg] = map[string]bool{}
		}
		g.collect(f, g.pkgs[pkg])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (g *goDecls) member(typ, name string) {
	if g.members[typ] == nil {
		g.members[typ] = map[string]bool{}
	}
	g.members[typ][name] = true
}

func (g *goDecls) collect(f *ast.File, names map[string]bool) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names[d.Name.Name] = true
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if index, ok := recv.(*ast.IndexExpr); ok {
					recv = index.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					g.member(id.Name, d.Name.Name)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					g.member(s.Name.Name, "")
					var fields *ast.FieldList
					switch typ := s.Type.(type) {
					case *ast.StructType:
						fields = typ.Fields
					case *ast.InterfaceType:
						fields = typ.Methods
					}
					if fields == nil {
						continue
					}
					for _, field := range fields.List {
						for _, id := range field.Names {
							g.member(s.Name.Name, id.Name)
						}
						if len(field.Names) == 0 { // embedded: its members are promoted
							g.member(s.Name.Name, "*")
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names[id.Name] = true
					}
				}
			}
		}
	}
}

var (
	fencedBlock = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	selector    = regexp.MustCompile(`(?:^|[^\w./-])([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	goPath      = regexp.MustCompile(`^(?:\./)?([A-Za-z0-9][\w./-]*\.go)(?::\d+)?$`)
	treePath    = regexp.MustCompile(`^(?:\./)?((?:internal|cmd|examples)(?:/[\w.-]+)*)/?(?:\.\.\.)?$`)
)

// TestDocsNameLiveCode holds README.md and DESIGN.md to the tree: every
// code span that names a selector pkg.Symbol (or pkg.Type.Member) of one
// of this module's packages, Type.Member of one of its types, a .go file
// or a path under internal/, cmd/ or examples/ must name something that
// exists, so a deletion or a rename cannot leave the design notes
// pointing at code that is gone. Not checked: a selector whose first name
// is not a package or type of the module (a stdlib package), one whose
// second is a field or method of some module type (a variable that
// shares a package's name, like batch.Rows), and metric names (a_b). So
// history that names gone code names the commit that removed it instead.
func TestDocsNameLiveCode(t *testing.T) {
	g := readGoDecls(t)
	hasPath := func(p string) bool {
		for _, have := range g.paths {
			if have == p || strings.HasSuffix(have, "/"+p) {
				return true
			}
		}
		return false
	}
	hasMember := func(typ, name string) bool {
		m := g.members[typ]
		return m != nil && (m[name] || m["*"])
	}
	isMember := map[string]bool{}
	for _, m := range g.members {
		for name := range m {
			isMember[name] = true
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllStringFunc(string(raw), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		var stale []string
		for i, line := range strings.Split(text, "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				code := span[1]
				if m := goPath.FindStringSubmatch(code); m != nil {
					if !hasPath(m[1]) {
						stale = append(stale, code)
					}
					continue
				}
				if m := treePath.FindStringSubmatch(code); m != nil {
					if !hasPath(m[1]) {
						stale = append(stale, code)
					}
					continue
				}
				for _, m := range selector.FindAllStringSubmatch(code, -1) {
					first, second, third := m[1], m[2], m[3]
					if second == "go" || strings.Contains(second, "_") {
						continue // a file name inside a longer span, or a metric
					}
					if names, ok := g.pkgs[first]; ok {
						if !names[second] && !isMember[second] ||
							third != "" && g.members[second] != nil && !hasMember(second, third) {
							stale = append(stale, code)
						}
					} else if g.members[first] != nil && first[0] >= 'A' && first[0] <= 'Z' && !hasMember(first, second) {
						stale = append(stale, code)
					}
				}
			}
			for _, s := range stale {
				t.Errorf("%s:%d: `%s` names no code in the tree", doc, i+1, s)
			}
			stale = stale[:0]
		}
	}
}
