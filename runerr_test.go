package declpat

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoDroppedRunErrors fails on any statement in the module that discards
// the error of a Universe.Run call, recognised as Run(func(r *Rank) ...) or
// Run(func(r *<pkg>.Rank) ...), either as a bare expression statement or
// assigned to _. A failed run (dead link, contained fault, watchdog) is only
// reported through that error, so dropping it turns a fault into silently
// wrong results.
func TestNoDroppedRunErrors(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var call ast.Expr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call = s.X
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 && allBlank(s.Lhs) {
					call = s.Rhs[0]
				}
			}
			if isRankRun(call) {
				t.Errorf("%s: Universe.Run error discarded", fset.Position(n.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if id, ok := e.(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// isRankRun reports whether e is a call x.Run(func(r *[pkg.]Rank) ...).
func isRankRun(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Run" {
		return false
	}
	lit, ok := call.Args[0].(*ast.FuncLit)
	if !ok || len(lit.Type.Params.List) != 1 {
		return false
	}
	star, ok := lit.Type.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch typ := star.X.(type) {
	case *ast.Ident:
		return typ.Name == "Rank"
	case *ast.SelectorExpr:
		return typ.Sel.Name == "Rank"
	}
	return false
}
