package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testMeta() metaRecord {
	return metaRecord{T: "meta", V: journalVersion, Seed: 7, Programs: 10, MaxNth: 2, MutateEvery: 4, MaxSteps: 100, MinimizeBudget: 300}
}

func writeJournalFile(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const metaLine = `{"t":"meta","v":1,"seed":7,"programs":10,"maxnth":2,"mutateEvery":4,"maxSteps":100,"minimizeBudget":300}` + "\n"

func TestJournalTornTailTruncated(t *testing.T) {
	path := writeJournalFile(t,
		metaLine,
		`{"t":"seed","i":0,"s":11,"c":"ok"}`+"\n",
		`{"t":"seed","i":1,"s":12,"c":"reject","r":"parse"}`+"\n",
		`{"t":"seed","i":2,"s":13,"c":"o`, // torn mid-write: no terminator
	)
	j, recs, err := loadJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 2 || recs[0].C != "ok" || recs[1].C != "reject" {
		t.Fatalf("recs = %+v, want the 2 complete records", recs)
	}
	// The torn bytes are gone from disk and appends continue cleanly.
	// Appends are group-committed, so the record reaches disk on Flush.
	if err := j.appendRecord(seedRecord{T: "seed", I: 2, S: 13, C: "ok"}); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); strings.Count(string(data), "\n") != 3 {
		t.Fatalf("buffered record reached disk before Flush:\n%s", data)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if strings.Contains(string(data), `"c":"o`+"\n") || strings.Count(string(data), "\n") != 4 {
		t.Fatalf("journal after truncate+append:\n%s", data)
	}
}

func TestJournalStopsAtCorruptLine(t *testing.T) {
	path := writeJournalFile(t,
		metaLine,
		`{"t":"seed","i":0,"s":11,"c":"ok"}`+"\n",
		"not json at all\n",
		`{"t":"seed","i":1,"s":12,"c":"ok"}`+"\n", // unreachable: after corruption
	)
	j, recs, err := loadJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 1 {
		t.Fatalf("recs = %+v, want just the record before the corruption", recs)
	}
	data, _ := os.ReadFile(path)
	if strings.Contains(string(data), "not json") {
		t.Fatalf("corrupt bytes survived truncation:\n%s", data)
	}
}

func TestJournalStopsAtOutOfOrderIndex(t *testing.T) {
	path := writeJournalFile(t,
		metaLine,
		`{"t":"seed","i":0,"s":11,"c":"ok"}`+"\n",
		`{"t":"seed","i":5,"s":12,"c":"ok"}`+"\n", // in-order writer never does this
	)
	j, recs, err := loadJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 1 {
		t.Fatalf("recs = %+v, want 1 (out-of-order tail discarded)", recs)
	}
}

func TestJournalRefusesMetaMismatch(t *testing.T) {
	path := writeJournalFile(t, metaLine)
	other := testMeta()
	other.Seed = 99
	if _, _, err := loadJournal(path, other); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("err = %v, want meta-mismatch refusal", err)
	}
}

func TestJournalRefusesTornMeta(t *testing.T) {
	path := writeJournalFile(t, `{"t":"meta","v":1`) // torn header, no newline
	if _, _, err := loadJournal(path, testMeta()); err == nil {
		t.Fatal("want error for torn meta header")
	}
}

func TestCreateJournalRefusesClobber(t *testing.T) {
	path := writeJournalFile(t, metaLine)
	if _, err := createJournal(path, testMeta()); err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Fatalf("err = %v, want clobber refusal pointing at Resume", err)
	}
}

// FuzzLoadJournal feeds loadJournal a valid meta header followed by
// arbitrary bytes. It must never panic, the file it leaves must be a prefix
// of what it read (it only truncates), and the records it accepts must be a
// fixpoint of re-serialization: written back by the journal's own writer
// and loaded again, they come back equal and serialize to the same bytes.
func FuzzLoadJournal(f *testing.F) {
	for _, body := range []string{
		// torn tail
		`{"t":"seed","i":0,"s":11,"c":"ok"}` + "\n" + `{"t":"seed","i":1,"s":12,"c":"reject","r":"parse"}` + "\n" + `{"t":"seed","i":2,"s":13,"c":"o`,
		// corrupt line
		`{"t":"seed","i":0,"s":11,"c":"ok"}` + "\n" + "not json at all\n" + `{"t":"seed","i":1,"s":12,"c":"ok"}` + "\n",
		// out-of-order index
		`{"t":"seed","i":0,"s":11,"c":"ok"}` + "\n" + `{"t":"seed","i":5,"s":12,"c":"ok"}` + "\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		input := append([]byte(metaLine), body...)
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := loadJournal(path, testMeta())
		if err != nil {
			t.Fatalf("valid meta header refused: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(input, left) || len(left) < len(metaLine) {
			t.Fatalf("loadJournal left %q, not a prefix of its input holding the meta line", left)
		}

		first := reserialize(t, recs)
		path2 := filepath.Join(t.TempDir(), "again.jsonl")
		if err := os.WriteFile(path2, first, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs2, err := loadJournal(path2, testMeta())
		if err != nil {
			t.Fatalf("re-serialized journal refused: %v", err)
		}
		j2.Close()
		if !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("re-serialized records load as %+v, want %+v", recs2, recs)
		}
		if second := reserialize(t, recs2); !bytes.Equal(second, first) {
			t.Fatalf("re-serialization is not byte-identical:\n%s\n%s", first, second)
		}
	})
}

// reserialize writes recs as the journal writer does, after the meta line,
// and returns the file's bytes.
func reserialize(t *testing.T, recs []seedRecord) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.jsonl")
	j, err := createJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.appendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
