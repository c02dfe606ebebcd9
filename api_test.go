package minato

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
		walkUsers(t, dir, func(_ *token.FileSet, f *ast.File, alias string) {
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
		})
	}
	inREADME := readmeMentions(t)

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

// walkUsers parses every non-test Go file under dir (bench/out, the
// benchmark's output, excepted) and hands fn its positions, its syntax and
// the name it imports this package under ("" when it does not).
func walkUsers(t *testing.T, dir string, fn func(fset *token.FileSet, f *ast.File, alias string)) {
	t.Helper()
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
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
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
		fn(fset, f, alias)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readmeMentions reports whether README.md names an identifier as a word.
func readmeMentions(t *testing.T) func(name string) bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	return func(name string) bool {
		return regexp.MustCompile(`\b` + name + `\b`).Match(readme)
	}
}

// TestDeprecatedNamesOnlyInBench keeps the deprecated names contained: every
// exported func or type whose doc has a "Deprecated:" paragraph is still used
// by bench/ — which cannot change outside a benchmark change, and is the only
// reason the name stays — and by nothing else: not the package's own non-test
// code, not examples/ or cmd/, not README.md. Under -v it lists the bench/
// call sites that change has to move.
func TestDeprecatedNamesOnlyInBench(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	deprecated := map[string]bool{}
	decls := map[*ast.Ident]bool{}
	note := func(name *ast.Ident, doc *ast.CommentGroup) {
		if text := "\n\n" + doc.Text(); name.IsExported() && strings.Contains(text, "\n\nDeprecated: ") {
			deprecated[name.Name], decls[name] = true, true
		}
	}
	files := pkgs["minato"].Files
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					note(d.Name, d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						doc := ts.Doc
						if len(d.Specs) == 1 && d.Lparen == token.NoPos {
							doc = d.Doc // a lone type's doc sits on its declaration
						}
						note(ts.Name, doc)
					}
				}
			}
		}
	}

	var misuse []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && deprecated[id.Name] && !decls[id] {
				misuse = append(misuse, fmt.Sprintf("%s uses %s", fset.Position(id.Pos()), id.Name))
			}
			return true
		})
	}
	benchUses := map[string][]string{}
	for _, dir := range []string{"examples", "cmd", "bench"} {
		walkUsers(t, dir, func(fset *token.FileSet, f *ast.File, alias string) {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && alias != "" && id.Name == alias && deprecated[sel.Sel.Name] {
					at := fset.Position(sel.Pos()).String()
					if dir == "bench" {
						benchUses[sel.Sel.Name] = append(benchUses[sel.Sel.Name], at)
					} else {
						misuse = append(misuse, fmt.Sprintf("%s uses %s", at, sel.Sel.Name))
					}
				}
				return true
			})
		})
	}
	inREADME := readmeMentions(t)
	names := slices.Sorted(maps.Keys(deprecated))
	for _, name := range names {
		if inREADME(name) {
			misuse = append(misuse, "README.md mentions "+name)
		}
		if len(benchUses[name]) == 0 {
			t.Errorf("%s is deprecated and bench/ no longer uses it: delete it", name)
		}
		t.Logf("%s: bench/ uses it in %s", name, strings.Join(benchUses[name], ", "))
	}
	sort.Strings(misuse)
	for _, m := range misuse {
		t.Errorf("%s, which is deprecated: call what its doc names instead", m)
	}
}
