package sulong_test

import (
	"strings"
	"testing"

	sulong "repro"
)

// TestHeapBlameAllTools checks the alloc/free-site acceptance criterion on
// the tools that can see heap history: for a use-after-free, Safe Sulong,
// ASan, and memcheck must all report the allocation site and the free site.
func TestHeapBlameAllTools(t *testing.T) {
	const src = `#include <stdlib.h>
int *make(void) { return malloc(4 * sizeof(int)); }
void drop(int *p) { free(p); }
int main(void) {
    int *p = make();
    drop(p);
    return p[2];
}`
	for _, eng := range []sulong.Engine{sulong.EngineSafeSulong, sulong.EngineASan, sulong.EngineMemcheck} {
		res, err := sulong.Run(src, sulong.Config{Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if res.Bug == nil {
			t.Fatalf("%v: use-after-free not detected", eng)
		}
		if res.Bug.AccessStack.IsEmpty() {
			t.Errorf("%v: no access stack", eng)
		}
		if res.Bug.AllocStack.IsEmpty() {
			t.Errorf("%v: no allocation-site stack", eng)
		}
		if res.Bug.FreeStack.IsEmpty() {
			t.Errorf("%v: no free-site stack", eng)
		}
		if len(res.Diagnostics) == 0 {
			t.Fatalf("%v: no structured diagnostics", eng)
		}
		r := res.Diagnostics[0].Render()
		for _, want := range []string{"allocated by:", "freed by:", "make", "drop"} {
			if !strings.Contains(r, want) {
				t.Errorf("%v: rendered diagnostic missing %q:\n%s", eng, want, r)
			}
		}
	}
}
