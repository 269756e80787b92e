package harness

import (
	"encoding/json"
	"regexp"
	"testing"

	sulong "repro"
)

// TestCachesJSONKeys pins the keys of the `caches` object that perfbench
// -json and fuzzbench -json write, in order, at every level: reports from
// different runs and revisions must diff stably against each other.
func TestCachesJSONKeys(t *testing.T) {
	// A hit gives hitRate a fractional value.
	for range 2 {
		if _, err := sulong.CompileOnly("int main(void) { return 0; }"); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(Caches())
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`-?[0-9][0-9.eE+-]*`).ReplaceAllString(string(data), "0")
	const want = `{"codeCache":{"evictions":0,"funcs":0,"hits":0,"misses":0,"units":0},` +
		`"enginePool":{"hits":0,"idle":0,"misses":0},` +
		`"machinePool":{"hits":0,"idle":0,"misses":0},` +
		`"pipeline":{"entries":0,"hitRate":0,"hits":0,"misses":0}}`
	if got != want {
		t.Errorf("Caches() marshals as\n%s\nwant (numbers zeroed)\n%s", got, want)
	}
}
