package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fault"
)

// journalFixture is a configuration and one line of every other type, with
// a violation name that HTML escaping rewrites.
func journalFixture() (journalConfig, []journalLine) {
	cfg := journalConfig{Proto: ProtoVersion, Seed: 11, Budget: 48, CheckEvery: 64, Apps: []string{"bank", "kvstore"}}
	sched := chaos.Schedule{{Kind: fault.Crash, Targets: []int{0}, Window: chaos.Window{From: 40, To: 90}}}
	violations := []string{"inv: balance <0 & total > supply"}
	run := &chaos.RunResult{Digest: "d1", Shape: "s1", Violations: violations, Procs: []string{"p0", "p1"}}
	index := 3
	return cfg, []journalLine{
		{Type: "config", Config: &cfg},
		{Type: "run", App: "bank", Index: &index, Result: run},
		{Type: "shrink", App: "bank", Sig: violations[0], Failure: &chaos.SearchFailure{
			Schedule: sched, Violations: violations, Shrunk: sched, ShrinkRuns: 4, Minimal: true,
		}},
		{Type: "corpus", App: "bank", Entry: &chaos.CorpusEntry{
			Schedule: sched, Fingerprint: chaos.Fingerprint{Digest: "d1", Shape: "s1"}, FoundAt: 4, Op: "seed:crash",
		}},
	}
}

// TestJournalLinesMatchMarshal: every line type is journaled as exactly
// json.Marshal's bytes and a newline, HTML escaping included.
func TestJournalLinesMatchMarshal(t *testing.T) {
	cfg, lines := journalFixture()
	path := filepath.Join(t.TempDir(), "frontier.journal")
	j, err := openJournal(path, cfg) // writes the config line
	if err != nil {
		t.Fatal(err)
	}
	run, shrink, corpus := lines[1], lines[2], lines[3]
	if err := j.addRun(run.App, *run.Index, run.Result); err != nil {
		t.Fatal(err)
	}
	if err := j.addShrink(shrink.App, shrink.Sig, shrink.Failure); err != nil {
		t.Fatal(err)
	}
	if err := j.addCorpus(corpus.App, *corpus.Entry); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, line := range lines {
		b, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal bytes differ from json.Marshal + newline:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !bytes.Contains(got, []byte(`balance \u003c0 \u0026 total \u003e supply`)) {
		t.Errorf("journal does not HTML-escape the violation name:\n%s", got)
	}
}

// FuzzJournalRecover: a journal is hostile input read from disk. Whatever
// follows a valid config line, openJournal does not panic, keeps exactly
// the complete lines that parse before the first that does not (cutting
// the rest off), and a line appended then lands right after them and is
// recovered on the next open.
func FuzzJournalRecover(f *testing.F) {
	cfg, lines := journalFixture()
	var valid []byte
	for _, line := range lines[1:] {
		b, err := json.Marshal(line)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(append(valid, b...), '\n')
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add([]byte(`{"type":"run","app":"a","index":0,"result":{}}` + "\n" + `{"type":"run","index":"x"}` + "\n"))
	f.Add([]byte(`{"type":"corpus","entry":{"Op":"splice",}}` + "\n"))
	f.Add([]byte(`{"type":"shrink","app":"a","sig":"s","failure":{"Violations":["v"]}}` + "\r\n"))
	head, err := json.Marshal(lines[0])
	if err != nil {
		f.Fatal(err)
	}
	head = append(head, '\n')
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(dir, "frontier.journal")
		data := append(slices.Clip(head), tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The prefix to keep: every complete line, up to the first that
		// does not parse.
		keep := len(head)
		for rest := tail; ; {
			nl := bytes.IndexByte(rest, '\n')
			var line recoveredLine
			if nl < 0 || json.Unmarshal(rest[:nl], &line) != nil {
				break
			}
			keep += nl + 1
			rest = rest[nl+1:]
		}
		j, err := openJournal(path, cfg)
		if err != nil {
			t.Fatalf("open after a valid config line: %v", err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, data[:keep]) {
			j.close()
			t.Fatalf("journal kept %d bytes, want the %d of its parsable prefix", len(kept), keep)
		}
		run := &chaos.RunResult{Digest: "appended"}
		if err := j.addRun("fuzz", 1<<20, run); err != nil {
			t.Fatal(err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		j, err = openJournal(path, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j.close()
		if got := j.run("fuzz", 1<<20); got == nil || got.Digest != "appended" {
			t.Fatalf("the line appended after the recovered prefix was not recovered: %+v", got)
		}
	})
}

// BenchmarkJournalAppend times journaling one run line: encoding it into
// the journal's writer and flushing it to the file.
func BenchmarkJournalAppend(b *testing.B) {
	cfg, lines := journalFixture()
	j, err := openJournal(filepath.Join(b.TempDir(), "frontier.journal"), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer j.close()
	run := lines[1]
	b.ReportAllocs()
	for i := range b.N {
		if err := j.addRun(run.App, i, run.Result); err != nil {
			b.Fatal(err)
		}
	}
}
