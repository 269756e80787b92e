package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with BUGBENCH_RUN_MAIN set,
// the test binary is bugbench, taking its flags from the command line.
func TestMain(m *testing.M) {
	if os.Getenv("BUGBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkersDefaultToCPUCount: with -parallel left at 0 the matrix runs on
// one worker per CPU, and the summary line and -json report that count.
func TestWorkersDefaultToCPUCount(t *testing.T) {
	out := filepath.Join(t.TempDir(), "matrix.json")
	cmd := exec.Command(os.Args[0], "-json", out)
	cmd.Env = append(os.Environ(), "BUGBENCH_RUN_MAIN=1", "GOMAXPROCS=3")
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("bugbench: %v\n%s", err, stdout)
	}
	if !strings.Contains(string(stdout), "(workers=3)") {
		t.Errorf("summary does not report 3 workers:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep matrixReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 3 {
		t.Errorf(`-json reports "workers": %d, want 3`, rep.Workers)
	}
}
