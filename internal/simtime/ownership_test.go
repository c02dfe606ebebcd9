package simtime

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestTaskOnlyPackagesImportNoSync keeps the ownership rule from eroding:
// state under internal/ belongs to the running task, so no file there may
// import sync/atomic or use anything of sync but sync.Pool (a process-wide
// free list is not a lock), and a lock cannot creep back unnoticed. The
// facade in the module's root package is held to the same rule: its state is
// the kernel's too, entered once per public call. The exceptions are listed
// per file (root files by bare name), each with the caller outside the kernel
// that forces it; an entry that no longer imports what it lists fails too.
func TestTaskOnlyPackagesImportNoSync(t *testing.T) {
	kept := map[string]struct{ imports, caller string }{
		"simtime/door.go":      {"sync sync/atomic", "the inbox every goroutine that is not a task enters through"},
		"simtime/freelist.go":  {"sync", "the coroutine free list, shared by every kernel in the process"},
		"simtime/virtual.go":   {"sync/atomic", "Virtual.now, read by Now from any goroutine"},
		"trace/trace.go":       {"sync", "Recorder: snapshot and export run while sessions record"},
		"data/data.go":         {"sync/atomic", "a batch's release word: the iterator releases the last batch after its stream left the kernel"},
		"data/pool.go":         {"sync/atomic", "pool counters and sample states, touched by that same late release"},
		"dist/dist.go":         {"sync", "the permutation cache, shared by every kernel in the process"},
		"service/client.go":    {"sync", "client counters: RemoteSession.Stats from any goroutine"},
		"registry/registry.go": {"sync", "the loader, workload, chaos-scenario and experiment registries: Register* from any goroutine"},
		"session.go":           {"sync", "the snapshot the kernel publishes for Session.Stats, read from any goroutine"},
	}
	seen := map[string]string{}
	check := func(path, rel string) error {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if ipath != "sync" && ipath != "sync/atomic" {
				continue
			}
			if ipath == "sync" && imp.Name == nil && usesOnlyPool(f) {
				continue
			}
			seen[rel] += " " + ipath
			if !strings.Contains(" "+kept[rel].imports+" ", " "+ipath+" ") {
				t.Errorf("%s imports %s: its state is task-only, entered from outside through the kernel's door", rel, ipath)
			}
		}
		return nil
	}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		return check(path, filepath.ToSlash(strings.TrimPrefix(path, ".."+string(filepath.Separator))))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("walked no package under internal/")
	}
	facade, err := filepath.Glob(filepath.Join("..", "..", "*.go"))
	if err != nil || len(facade) == 0 {
		t.Fatalf("found no file of the root package: %v", err)
	}
	for _, path := range facade {
		if !strings.HasSuffix(path, "_test.go") {
			if err := check(path, filepath.Base(path)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for file, k := range kept {
		if strings.TrimSpace(seen[file]) != k.imports {
			t.Errorf("%s is allowed %q for %s but uses %q: update the allow-list", file, k.imports, k.caller, strings.TrimSpace(seen[file]))
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
