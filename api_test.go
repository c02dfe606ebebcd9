package minato

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/api.golden from the package's source")

// TestPublicAPIGolden compares the package's exported identifiers — every
// const, var, type, func and method of the non-test files, with its kind,
// sorted — with testdata/api.golden, so a PR's API diff is a file diff.
// `go test -run TestPublicAPIGolden -update .` rewrites the file.
func TestPublicAPIGolden(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var api []string
	for _, f := range pkgs["minato"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					api = append(api, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				ptr := ""
				if star, ok := recv.(*ast.StarExpr); ok {
					recv, ptr = star.X, "*"
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					api = append(api, fmt.Sprintf("method (%s%s) %s", ptr, id.Name, d.Name.Name))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							api = append(api, "type "+spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.IsExported() {
								api = append(api, strings.ToLower(d.Tok.String())+" "+name.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(api)
	got := []byte(strings.Join(api, "\n") + "\n")

	const golden = "testdata/api.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gotSet := map[string]bool{}
		for _, l := range api {
			gotSet[l] = true
		}
		var diff []string
		for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
			if !gotSet[l] {
				diff = append(diff, "- "+l)
			}
			delete(gotSet, l)
		}
		for l := range gotSet {
			diff = append(diff, "+ "+l)
		}
		sort.Strings(diff)
		t.Fatalf("the public API differs from %s (rerun with -update if intended):\n%s",
			golden, strings.Join(diff, "\n"))
	}
}
