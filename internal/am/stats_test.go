package am

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestCounterIDsMatchFields guards the counter table: every id constant
// cX in stats.go must be derived from its own Snapshot field X, so ids,
// exported names and Snapshot fields cannot drift apart, and the metric
// names must be unique.
func TestCounterIDsMatchFields(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "stats.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := 0
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 || vs.Names[0].Name == "numCounters" {
			return true
		}
		var field string
		ast.Inspect(vs.Values[0], func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if lit, ok := sel.X.(*ast.CompositeLit); ok {
					if id, ok := lit.Type.(*ast.Ident); ok && id.Name == "Snapshot" {
						field = sel.Sel.Name
					}
				}
			}
			return true
		})
		if field == "" {
			return true
		}
		ids++
		if name := vs.Names[0].Name; name != "c"+field {
			t.Errorf("counter id %s is derived from Snapshot.%s", name, field)
		}
		return true
	})
	if ids != numCounters {
		t.Errorf("%d counter ids for %d Snapshot fields", ids, numCounters)
	}
	seen := map[string]bool{}
	for id, name := range counterNames {
		if seen[name] {
			t.Errorf("counter %d: duplicate metric name %q", id, name)
		}
		seen[name] = true
	}
}
