package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fexipro/internal/obs"
)

// StageCounters enforces the telemetry contract between the pruning
// cascade and the StageCounters schema introduced by the observability
// layer (that every prune exit increments a PrunedBy* counter is
// boundflow's, which knows where the prunes are):
//
//  1. a struct type named Stats that declares PrunedBy* fields must have
//     a TotalPruned method referencing every one of them (the single
//     collapse point for the per-stage counters);
//  2. a keyed composite literal of a struct named StageCounters must set
//     every field, so schema conversions cannot silently drop a stage;
//  3. string constants named Metric* must satisfy the Prometheus metric
//     naming grammar, via the same obs.ValidMetricName the runtime
//     registry enforces — the static and dynamic checks cannot diverge;
//  4. a PrunedBy* field must never be plainly assigned (counters are
//     monotone within a query: use += or ++; reset the whole Stats).
var StageCounters = &Analyzer{
	Name: "stagecounters",
	Doc:  "enforces TotalPruned completeness, complete StageCounters literals, monotone PrunedBy* counters, and Prometheus metric-name grammar",
	Run:  runStageCounters,
}

func runStageCounters(pass *Pass) {
	for _, file := range pass.Files {
		checkMetricConsts(pass, file)
		checkStatsTypes(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CompositeLit:
				checkStageCountersLit(pass, node)
			case *ast.AssignStmt:
				checkPlainCounterAssign(pass, node)
			}
			return true
		})
	}
}

// --- check 3: Metric* constants obey the Prometheus grammar ----------

func checkMetricConsts(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Metric") {
					continue
				}
				c, ok := pass.Info.Defs[name].(*types.Const)
				if !ok || c.Val().Kind() != constant.String {
					continue
				}
				v := constant.StringVal(c.Val())
				if !obs.ValidMetricName(v) {
					pass.Reportf(name.Pos(),
						"metric-name constant %s = %q violates the Prometheus naming grammar [a-zA-Z_:][a-zA-Z0-9_:]*", name.Name, v)
				}
			}
		}
	}
}

// --- check 1: Stats types collapse every PrunedBy* field -------------

func checkStatsTypes(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Stats" {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			var stages []string
			for _, f := range st.Fields.List {
				for _, n := range f.Names {
					if strings.HasPrefix(n.Name, "PrunedBy") {
						stages = append(stages, n.Name)
					}
				}
			}
			if len(stages) == 0 {
				continue
			}
			method := findMethod(pass, ts.Name.Name, "TotalPruned")
			if method == nil {
				pass.Reportf(ts.Name.Pos(),
					"Stats declares %d PrunedBy* counters but no TotalPruned() collapse method", len(stages))
				continue
			}
			used := make(map[string]bool)
			ast.Inspect(method.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					used[sel.Sel.Name] = true
				}
				return true
			})
			var missing []string
			for _, s := range stages {
				if !used[s] {
					missing = append(missing, s)
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				pass.Reportf(method.Name.Pos(),
					"TotalPruned omits stage counter(s) %s; every PrunedBy* field must be summed", strings.Join(missing, ", "))
			}
		}
	}
}

// findMethod locates the method named methodName whose receiver base
// type is typeName, anywhere in the unit.
func findMethod(pass *Pass, typeName, methodName string) *ast.FuncDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != methodName || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if receiverTypeName(fd.Recv.List[0].Type) == typeName {
				return fd
			}
		}
	}
	return nil
}

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

// --- check 2: keyed StageCounters literals are complete --------------

func checkStageCountersLit(pass *Pass, lit *ast.CompositeLit) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "StageCounters" {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || len(lit.Elts) == 0 {
		return
	}
	set := make(map[string]bool)
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return // positional literal: the compiler enforces completeness
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			set[id.Name] = true
		}
	}
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		if name := st.Field(i).Name(); !set[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(lit.Pos(),
			"StageCounters literal omits field(s) %s; partial conversions silently drop pruning stages", strings.Join(missing, ", "))
	}
}

// --- check 4: stage counters are monotone --------------------------

func checkPlainCounterAssign(pass *Pass, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN {
		return
	}
	for _, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !strings.HasPrefix(sel.Sel.Name, "PrunedBy") {
			continue
		}
		pass.Reportf(sel.Sel.Pos(),
			"plain assignment to stage counter %s; counters are monotone within a query (use += or ++, reset the whole Stats value)", sel.Sel.Name)
	}
}
