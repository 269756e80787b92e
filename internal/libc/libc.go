// Package libc bundles the safe C standard library the paper describes in
// §3.1: written in standard C, compiled by the same front end as the user
// program, and interpreted by the managed engine, so that all of its
// accesses are checked just like application code. A handful of engine
// builtins (__ss_putchar, __ss_count_varargs, ...) play the role of the
// paper's Java "system call" methods.
package libc

import (
	"embed"
	"fmt"
	"sort"
	"strings"
	"sync"
)

//go:embed src
var srcFS embed.FS

// The embed FS is immutable, so every accessor memoizes its answer: the
// bundle is read exactly once per process no matter how many compilations
// (or concurrent matrix workers) ask for it. Files() hands out defensive
// copies because callers insert their own files into the returned map in
// place; File() reads the bundle without copying it.
var (
	loadOnce    sync.Once
	filesCache  map[string]string
	headerCache []string

	fnCountOnce sync.Once
	fnCount     int
)

func load() {
	entries, err := srcFS.ReadDir("src")
	if err != nil {
		panic("libc: embedded sources missing: " + err.Error())
	}
	filesCache = make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := srcFS.ReadFile("src/" + e.Name())
		if err != nil {
			panic("libc: reading embedded source: " + err.Error())
		}
		filesCache[e.Name()] = string(data)
		if strings.HasSuffix(e.Name(), ".h") {
			headerCache = append(headerCache, e.Name())
		}
	}
	sort.Strings(headerCache)
}

// Sources returns the libc implementation files, in link order.
func Sources() []string {
	return []string{"ctype.c", "string.c", "stdlib.c", "stdio.c"}
}

// Headers returns the header file names the preprocessor can include.
func Headers() []string {
	loadOnce.Do(load)
	return append([]string(nil), headerCache...)
}

// Files returns include-name -> contents for every bundled header and
// source, ready to merge into a cc.Compile file map. The map is a fresh
// copy on every call: callers may insert their own entries without
// aliasing other compilations.
func Files() map[string]string {
	loadOnce.Do(load)
	out := make(map[string]string, len(filesCache)+4)
	for k, v := range filesCache {
		out[k] = v
	}
	return out
}

// File returns the contents of one bundled file, without copying the
// bundle: the include resolver every compilation consults.
func File(name string) (string, bool) {
	loadOnce.Do(load)
	src, ok := filesCache[name]
	return src, ok
}

// FunctionCount reports how many public libc functions the bundle defines
// (the paper reports 126 supported functions; this bundle is smaller but
// covers the same program corpus). The scan runs once per process.
func FunctionCount() int {
	fnCountOnce.Do(func() {
		loadOnce.Do(load)
		for _, src := range Sources() {
			for _, line := range strings.Split(filesCache[src], "\n") {
				trimmed := strings.TrimSpace(line)
				if trimmed == "" || strings.HasPrefix(trimmed, "/*") || strings.HasPrefix(trimmed, "*") ||
					strings.HasPrefix(trimmed, "static") || strings.HasPrefix(trimmed, "#") {
					continue
				}
				if strings.HasSuffix(trimmed, "{") && strings.Contains(trimmed, "(") &&
					!strings.HasPrefix(trimmed, "}") && !strings.Contains(trimmed, "=") &&
					!strings.HasPrefix(trimmed, "if") && !strings.HasPrefix(trimmed, "for") &&
					!strings.HasPrefix(trimmed, "while") && !strings.HasPrefix(trimmed, "switch") {
					fnCount++
				}
			}
		}
	})
	return fnCount
}

// UnitFile is the main file of a managed translation unit.
const UnitFile = "__program.c"

// Prelude is a managed translation unit's main file up to the line that
// includes the user program: the libc sources, stitched together with
// #include, behind `#define __SS_HARDENED 1` for the hardened build. Every
// line ends in a newline, so the user program's #include is the line after
// the prelude's last.
func Prelude(hardened bool) string {
	var b strings.Builder
	if hardened {
		b.WriteString("#define __SS_HARDENED 1\n")
	}
	for _, src := range Sources() {
		fmt.Fprintf(&b, "#include %q\n", src)
	}
	return b.String()
}

// WrapProgram builds the whole main file of the translation unit for a user
// program: the prelude followed by the user code, so the preprocessor sees
// one unit (the paper's Fig. 4: libc.c + program.c).
func WrapProgram(userFile string, hardened bool) string {
	return Prelude(hardened) + fmt.Sprintf("#include %q\n", userFile)
}
