package minato

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	api := publicAPI(t)
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

// publicAPI lists the package's exported identifiers as api.golden spells
// them ("func Open", "method (*Session) Close", "type Batch"), sorted.
func publicAPI(t *testing.T) []string {
	t.Helper()
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
	return api
}

// uncalled is the allow-list of TestExportedNamesHaveCallers: exported funcs
// and methods no example, command, benchmark or README line calls, each with
// why it stays.
var uncalled = map[string]string{
	"ConfigError.Error":    "the error interface: fmt and errors call it, callers read it through err.Error()",
	"ChaosScenarioByName":  "the lookup behind WithChaosScenario, for callers that inspect a scenario before running it",
	"ChaosScenarios":       "lists what WithChaosScenario accepts, as Loaders and Workloads list the other registries",
	"Checkpoint.Cache":     "the warm page-cache state a Resume inherits, read before deciding to resume",
	"Checkpoint.Remaining": "how many batches a resumed session will stream",
	"Checkpoint.Step":      "where a resumed session starts within its epoch",
	"Checkpoint.TakenAt":   "the virtual instant a checkpoint was taken, for recovery-time accounting",
	"ServerAddr.Fleet":     "the fleet index link-chaos events and replica selection name a server by",
	"ServerAddr.Streams":   "the stream names a server publishes, what Dial's WithStream selects from",
}

// TestExportedNamesHaveCallers holds the public surface to what its users
// call: every exported func and method needs a minato.X selector or a .X(
// call in the non-test Go files of examples/, cmd/ or bench/, a mention in
// README.md, or an entry on the uncalled allow-list. Types, consts and vars
// are exempt: users reach them through the signatures that use them.
func TestExportedNamesHaveCallers(t *testing.T) {
	pkgSel, calls := map[string]bool{}, map[string]bool{}
	for _, dir := range []string{"examples", "cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path == filepath.Join("bench", "out") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			alias := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"github.com/minatoloader/minato"` {
					alias = "minato"
					if imp.Name != nil {
						alias = imp.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok && alias != "" && id.Name == alias {
						pkgSel[n.Sel.Name] = true
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						calls[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	inREADME := func(name string) bool {
		return regexp.MustCompile(`\b` + name + `\b`).Match(readme)
	}

	var missing []string
	exported := map[string]bool{}
	for _, line := range publicAPI(t) {
		kind, rest, _ := strings.Cut(line, " ")
		var name, key string
		var called bool
		switch kind {
		case "func":
			name, key, called = rest, rest, pkgSel[rest]
		case "method":
			recv, m, _ := strings.Cut(rest, " ")
			name, key, called = m, strings.Trim(recv, "(*)")+"."+m, calls[m]
		default:
			continue
		}
		called = called || inREADME(name)
		exported[key] = true
		_, allowed := uncalled[key]
		switch {
		case !called && !allowed:
			missing = append(missing, key)
		case called && allowed:
			t.Errorf("%s has a caller now; drop it from the allow-list", key)
		}
	}
	if len(missing) > 0 {
		t.Errorf("exported with no caller in examples/, cmd/, bench/ or README.md (unexport or delete them, call them there, or allow-list them):\n%s",
			strings.Join(missing, "\n"))
	}
	for key := range uncalled {
		if !exported[key] {
			t.Errorf("the allow-list names %s, which is not an exported func or method", key)
		}
	}
}
