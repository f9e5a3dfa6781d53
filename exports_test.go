package rudolf_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// exportAllowlist names exported internal/ functions that no non-test code
// calls but that are kept because they reproduce a part of the paper. Each
// key is "<package>.<Func>" or "<package>.<Recv>.<Method>".
var exportAllowlist = map[string]string{
	"core.Session.CaptureRemaining": "§4: the expert's closing option, capture every remaining fraud",
}

// interfaceMethods are method names the standard library calls through its
// own interfaces (json.Marshaler, error wrapping, fmt.Stringer), not by name.
var interfaceMethods = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "Unwrap": true, "Error": true, "String": true,
}

// TestNoUncalledInternalExports fails on any exported function or method
// under internal/ whose name no non-test .go file uses outside the
// function's own declaration. internal/exact (the Thm 4.1-4.6 reductions)
// and internal/testutil (test generators) are exempt. The check is by name,
// not by resolved type, so a dead method whose name any other identifier
// shares (Rules, Add, Version, ...) escapes it.
func TestNoUncalledInternalExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct {
		key, pos, name string
		self           int // uses of name inside the declaration itself
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		// A struct field or a keyed composite-literal field shares a
		// method's name without calling it, so neither counts as a use.
		field := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					for _, id := range fl.Names {
						field[id] = true
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					field[id] = true
				}
			}
			return true
		})
		idents := func(root ast.Node, visit func(*ast.Ident)) {
			ast.Inspect(root, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !field[id] {
					visit(id)
				}
				return true
			})
		}
		idents(f, func(id *ast.Ident) { uses[id.Name]++ })
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "internal/exact") ||
			strings.HasPrefix(dir, "internal/testutil") {
			return nil
		}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || (fn.Recv != nil && interfaceMethods[fn.Name.Name]) {
				continue
			}
			key := f.Name.Name + "."
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch generic := typ.(type) {
				case *ast.IndexExpr:
					typ = generic.X
				case *ast.IndexListExpr:
					typ = generic.X
				}
				key += typ.(*ast.Ident).Name + "."
			}
			d := decl{key: key + fn.Name.Name, pos: fset.Position(fn.Pos()).String(), name: fn.Name.Name}
			idents(fn, func(id *ast.Ident) {
				if id.Name == d.name {
					d.self++
				}
			})
			decls = append(decls, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if _, ok := exportAllowlist[d.key]; !ok && uses[d.name] == d.self {
			t.Errorf("%s: exported %s has no non-test caller; delete or unexport it, "+
				"or allowlist it with the paper section it reproduces", d.pos, d.key)
		}
	}
	for key := range exportAllowlist {
		if !declared[key] {
			t.Errorf("allowlisted %s no longer exists; drop it from exportAllowlist", key)
		}
	}
}
