package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAppendAndReadAll(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), []byte("beta"), []byte(""), []byte("gamma")}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ReadAll len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("record-%02d-padding-padding", i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	entries, _ := os.ReadDir(dir)
	if len(entries) < 2 {
		t.Fatalf("expected multiple segments, got %d files", len(entries))
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

// TestReopenCountsExisting: a reopened log appends after every record it
// already holds.
func TestReopenCountsExisting(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 5; i++ {
		l.Append([]byte("x"))
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2.Append([]byte("y"))
	l2.Close()
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || string(recs[5]) != "y" {
		t.Errorf("ReadAll after reopen = %q, want five x then y", recs)
	}
}

func TestTornFinalRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Append([]byte("good-1"))
	l.Append([]byte("good-2"))
	l.Close()
	// Truncate the tail of the segment mid-record to simulate a crash.
	path := filepath.Join(dir, "seg-00000000.wal")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll after torn tail: %v", err)
	}
	if len(recs) != 1 || string(recs[0]) != "good-1" {
		t.Errorf("got %d records (%q), want only good-1", len(recs), recs)
	}
	// A reopened log appends past the torn record, which stays dropped.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2.Append([]byte("good-3"))
	l2.Close()
	recs, err = ReadAll(dir)
	if err != nil || len(recs) != 2 || string(recs[1]) != "good-3" {
		t.Errorf("after reopen: %q, %v; want good-1, good-3", recs, err)
	}
}

func TestMidFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Append([]byte("record-one"))
	l.Append([]byte("record-two"))
	l.Close()
	path := filepath.Join(dir, "seg-00000000.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+2] ^= 0xFF // flip a byte inside the first payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadAll(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadAll error = %v, want ErrCorrupt", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Close()
	if err := l.Append([]byte("x")); err == nil {
		t.Error("Append after Close should fail")
	}
}

// TestReaderAcrossSegments: ReadAll reads the segments in index order, one
// record after another.
func TestReaderAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentSize: 32})
	for i := 0; i < 10; i++ {
		l.Append([]byte(fmt.Sprintf("payload-%d", i)))
	}
	l.Close()
	if segs, _ := segments(dir); len(segs) < 5 {
		t.Fatalf("10 records landed in %d segments; the test needs several", len(segs))
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("read %d records, want 10", len(recs))
	}
	for n, rec := range recs {
		if want := fmt.Sprintf("payload-%d", n); string(rec) != want {
			t.Errorf("record %d = %q, want %q", n, rec, want)
		}
	}
}

func TestSyncOption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// TestEmptyLogReadAll: a log with no records, and a directory that does not
// exist yet, both read as empty.
func TestEmptyLogReadAll(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Close()
	for _, d := range []string{dir, filepath.Join(dir, "missing")} {
		recs, err := ReadAll(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("%s: empty log has %d records", d, len(recs))
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	// Property: any sequence of payloads reads back identical and in order,
	// regardless of segment size.
	f := func(payloads [][]byte, segSizeSeed uint8) bool {
		dir := t.TempDir()
		segSize := int64(segSizeSeed)%256 + 16
		l, err := Open(dir, Options{SegmentSize: segSize})
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if err := l.Append(p); err != nil {
				return false
			}
		}
		l.Close()
		got, err := ReadAll(dir)
		if err != nil {
			return false
		}
		if len(got) != len(payloads) {
			return false
		}
		for i := range payloads {
			if !bytes.Equal(got[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentSize: 48})
	for i := 0; i < 10; i++ {
		l.Append([]byte(fmt.Sprintf("old-%d", i)))
	}
	if err := l.Rewrite([][]byte{[]byte("new-0"), []byte("new-1")}); err != nil {
		t.Fatal(err)
	}
	// New appends continue after the rewritten contents.
	if err := l.Append([]byte("new-2")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3: %q", len(recs), recs)
	}
	for i, want := range []string{"new-0", "new-1", "new-2"} {
		if string(recs[i]) != want {
			t.Errorf("record %d = %q, want %q", i, recs[i], want)
		}
	}
}

func TestRewriteEmpty(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Append([]byte("x"))
	if err := l.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	recs, _ := ReadAll(dir)
	if len(recs) != 0 {
		t.Errorf("records after empty rewrite = %d", len(recs))
	}
}

func TestRewriteClosed(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Close()
	if err := l.Rewrite(nil); err == nil {
		t.Error("Rewrite on closed log should fail")
	}
}

// FuzzWALRecover: after n valid appends, arbitrary bytes become one more
// segment (a stray or half-written file) or overwrite the tail of the last
// one (a crash or a damaged disk). ReadAll never panics: it reports
// ErrCorrupt, or returns a list that starts with every record the bytes
// left untouched. A log that reads, reopened and appended to, reads back
// with that append last.
func FuzzWALRecover(f *testing.F) {
	f.Add(uint8(3), false, []byte{})
	f.Add(uint8(3), true, []byte{})
	f.Add(uint8(2), true, []byte{1, 2, 3})
	f.Add(uint8(4), false, []byte{5, 0, 0, 0, 0, 0, 0, 0, 'x'})
	f.Add(uint8(1), false, []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	f.Add(uint8(5), true, bytes.Repeat([]byte{0}, 40))
	f.Fuzz(func(t *testing.T, n uint8, overwrite bool, junk []byte) {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, n%8)
		var ends []int // where each record ends in the one segment they share
		off := 0
		for i := range want {
			want[i] = []byte(strings.Repeat("r", i))
			if err := l.Append(want[i]); err != nil {
				t.Fatal(err)
			}
			off += headerSize + len(want[i])
			ends = append(ends, off)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		valid := len(want)
		if overwrite {
			b, err := os.ReadFile(segPath(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			cut := max(len(b)-len(junk), 0)
			valid = sort.SearchInts(ends, cut+1) // the records ending at or before cut
			if err := os.WriteFile(segPath(dir, 0), append(b[:cut], junk...), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(segPath(dir, 1), junk, 0o644); err != nil {
			t.Fatal(err)
		}

		got, err := ReadAll(dir)
		if errors.Is(err, ErrCorrupt) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < valid {
			t.Fatalf("read %d records, want at least the %d untouched ones", len(got), valid)
		}
		for i := range valid {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
			}
		}

		if l, err = Open(dir, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(dir)
		if err != nil {
			t.Fatalf("reopened log no longer reads: %v", err)
		}
		if len(again) != len(got)+1 || string(again[len(got)]) != "after" {
			t.Fatalf("after reopen and append: %d records, want %d ending in %q", len(again), len(got)+1, "after")
		}
	})
}
