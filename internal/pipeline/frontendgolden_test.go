package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cc"
	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/ir"
)

// frontendGoldenFile holds one line per (program, flavor): the SHA-256 of
// the front end's printed module, or of its error. It is frontendDigests'
// output, one line each; regenerate it only for a change meant to move
// the front end's output.
const frontendGoldenFile = "testdata/frontend_digests.txt"

// goldenPrograms is every corpus case, every benchmark program and the
// first 300 seed-7 generated programs.
func goldenPrograms() []parityProgram {
	var ps []parityProgram
	for _, c := range corpus.All() {
		ps = append(ps, parityProgram{name: "corpus/" + c.Name, src: c.Source})
	}
	for _, b := range benchprog.All() {
		ps = append(ps, parityProgram{name: "benchprog/" + b.Name, src: b.Source})
	}
	for i := 0; i < 300; i++ {
		ps = append(ps, parityProgram{name: fmt.Sprintf("gen7/%d", i), src: gen.Generate(gen.SeedAt(7, i)).Source})
	}
	return ps
}

// frontendDigest compiles p's front end in one flavor, the native
// optimizer left out, and digests the printed module or the error.
func frontendDigest(p parityProgram, flavor Flavor) string {
	mod, _, err := compile(Request{Source: p.src, Flavor: flavor},
		func(bool) (*cc.Prefix, []StageTiming, error) { return testPrefixes()[0], nil, nil }, false)
	text := "error: " + fmt.Sprint(err)
	if err == nil {
		text = ir.Print(mod)
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// frontendDigests renders the golden file's lines for every golden program
// in both flavors.
func frontendDigests() []string {
	ps := goldenPrograms()
	flavors := []Flavor{FlavorManaged, FlavorNative}
	lines := make([]string, len(ps)*len(flavors))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				p, f := ps[i/len(flavors)], flavors[i%len(flavors)]
				lines[i] = fmt.Sprintf("%s %s %s", p.name, f, frontendDigest(p, f))
			}
		}()
	}
	for i := range lines {
		work <- i
	}
	close(work)
	wg.Wait()
	return lines
}

// TestFrontEndGolden pins the front end's output: every golden program, in
// the managed and the native flavor, prints the module (or fails with the
// error) whose digest the golden file records.
func TestFrontEndGolden(t *testing.T) {
	data, err := os.ReadFile(frontendGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := frontendDigests()
	if len(got) != len(want) {
		t.Fatalf("%d digests, the golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("front-end output changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
