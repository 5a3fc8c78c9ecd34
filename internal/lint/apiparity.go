package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// APIParity enforces two surface contracts that keep the serving story
// honest:
//
//  1. Search ⇄ SearchContext parity. Every exported searcher type with
//     a Search(q []float64, k int) method must also expose
//     SearchContext (and SearchAbove must pair with
//     SearchAboveContext). PR 3's robustness guarantee — any query can
//     be cancelled — is only real if every entry point has a
//     context-taking form; a context-less method is a scan the server's
//     deadline guards cannot stop.
//  2. Config ⇄ flag parity (module phase, via facts). Every exported
//     field of a struct named Config outside cmd/ must be set somewhere
//     in a cmd/ package (a flag wiring site). A Config field no binary
//     can reach is dead tuning surface: it silently pins its zero value
//     in production while tests exercise the real range.
var APIParity = &Analyzer{
	Name:      "apiparity",
	Doc:       "Search⇄SearchContext method parity; every Config field wired to a cmd flag",
	Run:       runAPIParity,
	RunModule: runAPIParityModule,
}

const (
	factConfigField = "config-field"
	factConfigSet   = "config-field-set"
)

func runAPIParity(pass *Pass) {
	inCmd := strings.Contains("/"+pass.PkgPath+"/", "/cmd/")

	// Method parity: group methods by receiver type name.
	methods := make(map[string]map[string]*ast.FuncDecl)
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recv := receiverTypeName(fd.Recv.List[0].Type)
			if recv == "" || !ast.IsExported(recv) {
				continue
			}
			if methods[recv] == nil {
				methods[recv] = make(map[string]*ast.FuncDecl)
			}
			methods[recv][fd.Name.Name] = fd
		}
	}
	pairs := [...][2]string{
		{"Search", "SearchContext"},
		{"SearchAbove", "SearchAboveContext"},
		{"TopKAll", "TopKAllContext"},
		{"TopKJoin", "TopKJoinContext"},
		{"BatchTopK", "BatchTopKContext"},
	}
	for typeName, ms := range methods {
		for _, p := range pairs {
			plain, ok := ms[p[0]]
			if !ok || !searcherShaped(pass, plain) {
				continue
			}
			if ms[p[1]] == nil {
				pass.Reportf(plain.Pos(),
					"%s.%s has no %s counterpart: without a context-taking form this scan cannot be cancelled by the serving deadline guards (DESIGN.md §10)",
					typeName, p[0], p[1])
			}
		}
	}

	// Config facts.
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		if !inCmd {
			exportConfigFields(pass, file)
		}
		// Wiring sites can appear anywhere, but only cmd/ wiring counts
		// as "reachable from a flag".
		if inCmd {
			exportConfigSets(pass, file)
		}
	}
}

// searcherShaped keeps the parity requirement to real retrieval entry
// points: the first parameter must be a []float64 query (Search,
// SearchAbove) or a matrix/batch (TopK*, BatchTopK — any type), and the
// method must return something (the result set).
func searcherShaped(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return false
	}
	switch fd.Name.Name {
	case "Search", "SearchAbove":
		t := pass.TypeOf(fd.Type.Params.List[0].Type)
		sl, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().(*types.Basic)
		return ok && b.Kind() == types.Float64
	}
	return true
}

// exportConfigFields publishes every exported field of structs named
// Config declared in this (non-cmd) unit.
func exportConfigFields(pass *Pass, file *ast.File) {
	for _, d := range file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Config" {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if !ast.IsExported(name.Name) {
						continue
					}
					pass.ExportFact(name.Pos(), factConfigField,
						pass.PkgPath+".Config."+name.Name)
				}
			}
		}
	}
}

// exportConfigSets publishes every Config field this cmd unit sets,
// through composite literals and field assignments.
func exportConfigSets(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CompositeLit:
			pkgPath, ok := configTypePath(pass.TypeOf(s))
			if !ok {
				return true
			}
			for _, elt := range s.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					pass.ExportFact(kv.Pos(), factConfigSet, pkgPath+".Config."+key.Name)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if pkgPath, ok := configTypePath(pass.TypeOf(sel.X)); ok {
					pass.ExportFact(sel.Pos(), factConfigSet, pkgPath+".Config."+sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// configTypePath returns the defining package path when t is (a pointer
// to) a named struct type called Config.
func configTypePath(t types.Type) (string, bool) {
	named := namedRecv(t)
	if named == nil || named.Obj().Name() != "Config" || named.Obj().Pkg() == nil {
		return "", false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return "", false
	}
	return named.Obj().Pkg().Path(), true
}

// runAPIParityModule joins field facts against wiring facts.
func runAPIParityModule(mp *ModulePass) {
	wired := make(map[string]bool)
	for _, f := range mp.Facts {
		if f.Name == factConfigSet {
			wired[f.Value] = true
		}
	}
	for _, f := range mp.Facts {
		if f.Name != factConfigField || wired[f.Value] {
			continue
		}
		short := f.Value
		if i := strings.LastIndex(short, "/"); i >= 0 {
			short = short[i+1:]
		}
		mp.Reportf(f.Pos,
			"%s is not set by any cmd/ package: the field is unreachable from every shipped flag, so production silently pins its zero value — wire a flag or document why with //lint:ignore apiparity",
			short)
	}
}

// receiverTypeName is the base type name of a method receiver expression.
func receiverTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverTypeName(t.X)
	case *ast.IndexExpr:
		return receiverTypeName(t.X)
	}
	return ""
}
