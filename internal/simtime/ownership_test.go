package simtime

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestTaskOnlyPackagesImportNoSync keeps the ownership rule from eroding: the
// packages whose state belongs to the running task must not import sync/atomic
// and must use nothing of sync but sync.Pool (a process-wide free list is not
// a lock), so a lock cannot creep back unnoticed. The exceptions are the
// kernel's three: the door, the process-wide coroutine free list, and Now's
// atomic clock.
func TestTaskOnlyPackagesImportNoSync(t *testing.T) {
	allowed := map[string]string{
		"door.go":     "sync sync/atomic", // the inbox
		"freelist.go": "sync",             // shared by every kernel in the process
		"virtual.go":  "sync/atomic",      // Virtual.now, read by Now from anywhere
	}
	for _, dir := range []string{".", "../queue", "../device", "../netsim", "../storage", "../matcache",
		"../distributed", "../core", "../trainer", "../gpu"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in %s (%v)", dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path != "sync" && path != "sync/atomic" {
					continue
				}
				if dir == "." && strings.Contains(" "+allowed[filepath.Base(file)]+" ", " "+path+" ") {
					continue
				}
				if path == "sync" && imp.Name == nil && usesOnlyPool(f) {
					continue
				}
				t.Errorf("%s imports %s: its state is task-only, entered from outside through the kernel's door", file, path)
			}
		}
	}
}

// usesOnlyPool reports whether every sync.X in f is sync.Pool.
func usesOnlyPool(f *ast.File) bool {
	only := true
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" && sel.Sel.Name != "Pool" {
				only = false
			}
		}
		return only
	})
	return only
}
