package sulong_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileGateTermsMatch keeps the Makefile's gates honest. Each gate
// selects its tests with a `-run` regex of alternatives; a term that matches
// no top-level Test or Fuzz function in the packages the gate names (after a
// rename or deletion) silently drops that coverage from the gate. Every
// alternative of every `-run` pattern must match at least one.
func TestMakefileGateTermsMatch(t *testing.T) {
	names := topLevelTests(t)
	for _, g := range makefileGateTerms(t) {
		if !matchesAny(g.re, names, g.pkgs) {
			scope := "./..."
			if g.pkgs != nil {
				scope = strings.Join(g.pkgs, " ")
			}
			t.Errorf("-run term %q (packages %s) matches no Test or Fuzz function", g.re, scope)
		}
	}
}

// TestParityTestsHaveAGate is the converse for the tier-parity table, the
// tier-2 fault programs, the code cache's, the engine pool's and the
// machine pool's suites, the native and front-end golden digests, the
// managed-call and warm-cell allocation pins, the tiering suite and the
// campaign's suite: every top-level Test in their files matches a `-run`
// term of a gate that tests the file's package, so none of them runs only
// outside the race detector (the warm-cell pin is built only outside it).
func TestParityTestsHaveAGate(t *testing.T) {
	gates := makefileGateTerms(t)
	fset := token.NewFileSet()
	for _, file := range []string{
		"parity_test.go",
		"tier2fault_test.go",
		"irroundtrip_test.go",
		"libcshare_test.go",
		"machinepool_test.go",
		"nativegolden_test.go",
		"warmcellallocs_test.go",
		"internal/pipeline/frontendgolden_test.go",
		"internal/jit/codecache_test.go",
		"internal/jit/managedcall_test.go",
		"internal/core/tierup_test.go",
		"internal/core/enginepool_test.go",
		"internal/campaign/campaign_test.go",
	} {
		fns, err := testFuncs(fset, file)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.ToSlash(filepath.Dir(file))
		for _, fn := range fns {
			gated := slices.ContainsFunc(gates, func(g gateTerm) bool {
				return (g.pkgs == nil || slices.Contains(g.pkgs, pkg)) && g.re.MatchString(fn)
			})
			if strings.HasPrefix(fn, "Test") && !gated {
				t.Errorf("%s: %s matches no Makefile gate's -run term", file, fn)
			}
		}
	}
}

// gateTerm is one alternative of a Makefile gate's `-run` pattern and the
// package directories the gate tests (nil = every package).
type gateTerm struct {
	re   *regexp.Regexp
	pkgs []string
}

// makefileGateTerms parses every `-run` alternative of the Makefile.
func makefileGateTerms(t *testing.T) []gateTerm {
	t.Helper()
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	runRE := regexp.MustCompile(`-run '([^']*)'(.*)`)
	var terms []gateTerm
	for _, line := range strings.Split(string(data), "\n") {
		m := runRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pkgs := gatePackages(m[2])
		for _, term := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(term)
			if err != nil {
				t.Errorf("-run term %q: %v", term, err)
				continue
			}
			terms = append(terms, gateTerm{re, pkgs})
		}
	}
	if len(terms) == 0 {
		t.Fatal("no -run patterns found in Makefile")
	}
	return terms
}

// topLevelTests maps each package directory of this module (relative,
// slash-separated, "." for the root) to its Test and Fuzz function names.
// Nested modules are skipped: the Makefile's `./...` does not reach them.
func topLevelTests(t *testing.T) map[string][]string {
	t.Helper()
	names := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." {
				if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fns, err := testFuncs(fset, path)
		dir := filepath.ToSlash(filepath.Dir(path))
		names[dir] = append(names[dir], fns...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// testFuncs lists the top-level Test and Fuzz functions of one file.
func testFuncs(fset *token.FileSet, path string) ([]string, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil {
			continue
		}
		if n := fn.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") {
			names = append(names, n)
		}
	}
	return names, nil
}

// gatePackages returns the package directories a `go test` invocation
// names after its flags; nil means every package (`./...`).
func gatePackages(rest string) []string {
	var pkgs []string
	for _, f := range strings.Fields(rest) {
		switch {
		case f == "./...":
			return nil
		case f == ".":
			pkgs = append(pkgs, ".")
		case strings.HasPrefix(f, "./"):
			pkgs = append(pkgs, strings.TrimPrefix(f, "./"))
		}
	}
	return pkgs
}

func matchesAny(re *regexp.Regexp, names map[string][]string, pkgs []string) bool {
	for dir, fns := range names {
		if pkgs != nil && !slices.Contains(pkgs, dir) {
			continue
		}
		if slices.ContainsFunc(fns, re.MatchString) {
			return true
		}
	}
	return false
}
