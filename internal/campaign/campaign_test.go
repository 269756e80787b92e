package campaign

// The campaign's three resilience claims, each tested the hard way:
//
//   - Determinism: the journal and result of a fixed-seed campaign are
//     byte-identical at any worker count, after any interruption.
//   - Crash survival: a mid-campaign context cancel, a torn final record,
//     and a real kill -9 of the whole process all resume to the exact
//     journal an uninterrupted run would have produced.
//   - Supervision: workers that panic on the job are respawned, their
//     in-flight seed quarantined with a reason, and no goroutines leak.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	sulong "repro"
	"repro/internal/gen"
)

// refOpts is the shared small campaign every resilience test compares
// against: 60 programs is enough to cross a finding (index 5 is a
// tool-blind-spot at this seed) and dozens of kill points. Minimization is
// disabled so judging paces the journal flushes evenly — a multi-second
// ddmin run would let the whole campaign finish into the reorder buffer
// before a mid-campaign cancel lands. (Find records with minimized sources
// round-trip through resume in TestCampaignFuzzCheck instead.)
func refOpts() Options {
	return Options{Seed: 0xFEED, Programs: 60, MaxNth: 1, Workers: 4, MinimizeBudget: -1}
}

var (
	refOnce   sync.Once
	refBytes  []byte
	refResult *Result
	refErr    error
)

// reference runs the uninterrupted campaign exactly once per test process
// and memoizes its journal bytes and result.
func reference(t *testing.T) ([]byte, *Result) {
	t.Helper()
	refOnce.Do(func() {
		dir, err := os.MkdirTemp("", "campaign-ref")
		if err != nil {
			refErr = err
			return
		}
		defer os.RemoveAll(dir)
		opts := refOpts()
		opts.Journal = filepath.Join(dir, "journal.jsonl")
		refResult, refErr = Run(opts)
		if refErr == nil {
			refBytes, refErr = os.ReadFile(opts.Journal)
		}
	})
	if refErr != nil {
		t.Fatal(refErr)
	}
	return refBytes, refResult
}

// TestCampaignResumeDeterminism: cancel a campaign mid-flight at one worker
// count, tear the journal's final record, resume at another worker count —
// and get the byte-identical journal and result of the uninterrupted run.
func TestCampaignResumeDeterminism(t *testing.T) {
	wantBytes, wantRes := reference(t)

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	opts := refOpts()
	opts.Workers = 2
	opts.Journal = path
	opts.Ctx = ctx
	opts.Progress = func(done, total int) {
		if done >= 20 {
			cancel()
		}
	}
	if _, err := Run(opts); err == nil {
		t.Fatal("cancelled campaign reported success")
	}

	// Simulate the kill -9 failure mode on top: tear the last record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 10 {
		t.Fatalf("interrupted journal too small: %d bytes", len(data))
	}
	if err := os.Truncate(path, int64(len(data)-7)); err != nil {
		t.Fatal(err)
	}

	resumed := refOpts()
	resumed.Workers = 7
	resumed.Journal = path
	resumed.Resume = true
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed == 0 || res.Judged == 0 {
		t.Fatalf("resume did not split work: resumed=%d judged=%d", res.Resumed, res.Judged)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(wantBytes) {
		t.Fatalf("resumed journal differs from uninterrupted journal:\n--- want %d bytes\n--- got %d bytes", len(wantBytes), len(gotBytes))
	}
	assertSameOutcome(t, wantRes, res)
}

// TestCampaignKillResume: a real kill -9 of a campaign subprocess, resumed
// in this process, lands on the byte-identical journal. With group commit
// the kill necessarily lands mid-batch: the helper has judged seeds beyond
// the last flushed batch that exist only in its memory, and the journal on
// disk ends at a batch boundary. The test asserts that quantum, then tears
// the flushed tail mid-line — emulating a kill during the batch write
// itself — and still requires the resume to rebuild the exact journal.
func TestCampaignKillResume(t *testing.T) {
	wantBytes, wantRes := reference(t)

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=TestCampaignKillHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "CAMPAIGN_KILL_JOURNAL="+path)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill once the journal shows real progress but long before completion
	// (the helper runs single-worker, ~8x slower than the reference run).
	// The first group commit lands journalBatch+1 lines at once, so by the
	// time this poll fires the helper is buffering the next batch.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("helper made no progress before deadline")
		}
		data, _ := os.ReadFile(path)
		if strings.Count(string(data), "\n") >= 12 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no deferred cleanup runs
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// The durable journal must end at a group-commit boundary, short of the
	// full campaign: the records the helper judged past that boundary died
	// with it and must be re-derived by the resume.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	durable := strings.Count(string(data), "\n") - 1 // minus meta line
	if durable <= 0 || durable >= refOpts().Programs {
		t.Fatalf("kill did not land mid-campaign: %d durable records", durable)
	}
	if durable%journalBatch != 0 {
		t.Fatalf("durable journal ends off a batch boundary: %d records (batch %d)", durable, journalBatch)
	}
	// Tear the flushed tail mid-line: a kill can also land inside the batch
	// write, leaving a prefix of the batch plus a torn line.
	if err := os.Truncate(path, int64(len(data)-7)); err != nil {
		t.Fatal(err)
	}

	resumed := refOpts()
	resumed.Journal = path
	resumed.Resume = true
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed == 0 || res.Judged == 0 {
		t.Fatalf("kill did not interrupt mid-campaign: resumed=%d judged=%d", res.Resumed, res.Judged)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(wantBytes) {
		t.Fatalf("journal after kill -9 + resume differs from uninterrupted journal:\n--- want %d bytes\n--- got %d bytes", len(wantBytes), len(gotBytes))
	}
	assertSameOutcome(t, wantRes, res)
}

// TestCampaignKillHelper is the kill -9 victim: it runs the reference
// campaign single-worker against the journal named in the environment. It
// is skipped in normal test runs.
func TestCampaignKillHelper(t *testing.T) {
	path := os.Getenv("CAMPAIGN_KILL_JOURNAL")
	if path == "" {
		t.Skip("helper process for TestCampaignKillResume")
	}
	opts := refOpts()
	opts.Workers = 1
	opts.Journal = path
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
}

// assertSameOutcome compares everything a campaign promises to keep
// deterministic across interruption and worker counts.
func assertSameOutcome(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Resumed+got.Judged != want.Resumed+want.Judged {
		t.Fatalf("judged totals differ: want %d, got %d", want.Resumed+want.Judged, got.Resumed+got.Judged)
	}
	if got.OK != want.OK || got.Rejects != want.Rejects {
		t.Fatalf("ok/rejects differ: want %d/%d, got %d/%d", want.OK, want.Rejects, got.OK, got.Rejects)
	}
	if !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Fatalf("findings differ:\nwant %+v\ngot  %+v", want.Findings, got.Findings)
	}
	if !reflect.DeepEqual(got.Quarantined, want.Quarantined) {
		t.Fatalf("quarantines differ:\nwant %+v\ngot  %+v", want.Quarantined, got.Quarantined)
	}
}

// TestCampaignWorkerPanicStorm: a third of all judgments panic their
// worker. The supervisor quarantines every poisoned seed with its reason,
// respawns, finishes the campaign, and leaks no goroutines. The journal it
// writes is deterministic, so a second storm reproduces it byte-for-byte.
func TestCampaignWorkerPanicStorm(t *testing.T) {
	storm := func(journal string) *Result {
		opts := Options{
			Seed: 0xBAD, Programs: 48, Workers: 8, Journal: journal,
			hookJudge: func(idx int, seed uint64, info gen.Info) seedRecord {
				if idx%3 == 0 {
					panic(fmt.Sprintf("storm-%d", idx))
				}
				return seedRecord{T: "seed", I: idx, S: seed, C: "ok"}
			},
		}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	before := runtime.NumGoroutine()
	dir := t.TempDir()
	res := storm(filepath.Join(dir, "a.jsonl"))

	if res.OK != 32 || len(res.Quarantined) != 16 {
		t.Fatalf("ok=%d quarantined=%d, want 32/16", res.OK, len(res.Quarantined))
	}
	for i, q := range res.Quarantined {
		wantIdx := i * 3
		if q.Index != wantIdx || q.Seed != gen.SeedAt(0xBAD, wantIdx) {
			t.Fatalf("quarantine %d = %+v, want index %d", i, q, wantIdx)
		}
		if want := "worker death: storm-" + strconv.Itoa(wantIdx); q.Reason != want {
			t.Fatalf("quarantine reason %q, want %q", q.Reason, want)
		}
	}

	// Every worker (original and respawned) must be gone.
	settleBy := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(settleBy) {
			t.Fatalf("goroutines leaked: %d before storm, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Determinism through the storm: same seeds, same journal bytes.
	storm(filepath.Join(dir, "b.jsonl"))
	a, _ := os.ReadFile(filepath.Join(dir, "a.jsonl"))
	b, _ := os.ReadFile(filepath.Join(dir, "b.jsonl"))
	if string(a) != string(b) {
		t.Fatalf("storm journals differ:\n%s\n---\n%s", a, b)
	}
}

// TestCampaignFuzzCheck is the `make fuzzcheck` gate: a fixed-seed campaign
// with the full oracle set (tier parity, FailNth 1..2 fault parity,
// cross-tool blind spots) must finish with zero hard findings, zero
// quarantines, and every finding minimized to a committed-corpus-sized
// program that re-verified against its oracle. The campaign keeps nothing
// it has judged: afterwards the pipeline cache and the engine pool are
// back to their sizes before it. FUZZCHECK_PROGRAMS scales the campaign
// (the Makefile gate runs 200; the default keeps plain `go test ./...`
// brisk).
func TestCampaignFuzzCheck(t *testing.T) {
	programs := 60
	if v := os.Getenv("FUZZCHECK_PROGRAMS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("FUZZCHECK_PROGRAMS=%q", v)
		}
		programs = n
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	out := filepath.Join(t.TempDir(), "finds")
	entries, idle := sulong.CacheStats().Entries, sulong.EnginePoolStats().Idle
	res, err := Run(Options{
		Seed: 0xC0FFEE, Programs: programs, MaxNth: 2,
		Journal: path, OutDir: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e, i := sulong.CacheStats().Entries, sulong.EnginePoolStats().Idle; e != entries || i != idle {
		t.Errorf("after the campaign: %d cache entries and %d idle engines, want %d and %d as before it", e, i, entries, idle)
	}
	if hard := res.Hard(); len(hard) > 0 {
		t.Fatalf("campaign found %d hard engine defects:\n%s", len(hard), res.Summary())
	}
	if len(res.Quarantined) > 0 {
		t.Fatalf("quarantined seeds in a deterministic-budget campaign:\n%s", res.Summary())
	}
	if res.Judged != programs {
		t.Fatalf("judged %d of %d", res.Judged, programs)
	}
	for _, f := range res.Findings {
		if !f.MinimizedOK {
			t.Fatalf("finding #%d (%s) did not re-verify under minimization — flaky oracle", f.Index, f.Kind)
		}
		if lines := strings.Count(f.Minimized, "\n") + 1; lines > 40 {
			t.Fatalf("finding #%d minimized to %d lines, want <= 40", f.Index, lines)
		}
		// Its intake file must exist and round-trip.
		data, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("find-%06d-%s.json", f.Index, f.Kind)))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "\"verified\": true") {
			t.Fatalf("intake for finding #%d not marked verified:\n%s", f.Index, data)
		}
	}
	// The grammar must mostly produce accepted programs: rejects are
	// mutation debt, not generator debt.
	if res.Rejects > programs/5 {
		t.Fatalf("%d/%d programs rejected by the front end", res.Rejects, programs)
	}

	// A complete journal resumes as pure replay: no re-judging, identical
	// findings (minimized sources included), identical bytes on disk.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Run(Options{
		Seed: 0xC0FFEE, Programs: programs, MaxNth: 2,
		Journal: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Judged != 0 || replayed.Resumed != programs {
		t.Fatalf("complete-journal resume re-judged: judged=%d resumed=%d", replayed.Judged, replayed.Resumed)
	}
	if !reflect.DeepEqual(replayed.Findings, res.Findings) {
		t.Fatalf("findings changed across replay:\nwant %+v\ngot  %+v", res.Findings, replayed.Findings)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("replay modified the journal")
	}
}
