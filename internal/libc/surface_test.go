package libc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestEveryCallsMethodHasAProductionCaller keeps the interposable surface
// to the calls the simulated TensorFlow makes. A GOT symbol stays linked
// through its Define closure and Darshan's WrapperFor switch even when no
// application code calls it, so the linker's dead-code view cannot spot an
// unused symbol; this test does, by requiring every exported Calls method
// to appear as <x>.Libc.<Method>( in a non-test file under cmd/, examples/
// or internal/.
func TestEveryCallsMethodHasAProductionCaller(t *testing.T) {
	called := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range []string{"cmd", "examples", "internal"} {
		root := filepath.Join("..", "..", dir)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				method, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if recv, ok := method.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "Libc" {
					called[method.Sel.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ct := reflect.TypeOf(&Calls{})
	if ct.NumMethod() != len(IOSymbols) {
		t.Errorf("Calls has %d methods for %d IOSymbols %v: one method per symbol", ct.NumMethod(), len(IOSymbols), IOSymbols)
	}
	for i := 0; i < ct.NumMethod(); i++ {
		if name := ct.Method(i).Name; !called[name] {
			t.Errorf("Calls.%s has no production caller (<x>.Libc.%s( in cmd/, examples/ or internal/): delete its symbol through every layer", name, name)
		}
	}
}
