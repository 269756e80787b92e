package sulong_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileGateTermsMatch keeps the Makefile's gates honest. Each gate
// selects its tests with a `-run` regex of alternatives; a term that matches
// no top-level Test or Fuzz function in the packages the gate names (after a
// rename or deletion) silently drops that coverage from the gate. Every
// alternative of every `-run` pattern must match at least one.
func TestMakefileGateTermsMatch(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	names := topLevelTests(t)
	runRE := regexp.MustCompile(`-run '([^']*)'(.*)`)
	gates := 0
	for _, line := range strings.Split(string(data), "\n") {
		m := runRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		gates++
		pkgs := gatePackages(m[2])
		for _, term := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(term)
			if err != nil {
				t.Errorf("-run term %q: %v", term, err)
				continue
			}
			if !matchesAny(re, names, pkgs) {
				scope := "./..."
				if pkgs != nil {
					scope = strings.Join(pkgs, " ")
				}
				t.Errorf("-run term %q (packages %s) matches no Test or Fuzz function", term, scope)
			}
		}
	}
	if gates == 0 {
		t.Fatal("no -run patterns found in Makefile")
	}
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if n := fn.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") {
				names[dir] = append(names[dir], n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
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
		if pkgs != nil && !contains(pkgs, dir) {
			continue
		}
		for _, n := range fns {
			if re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
