package scroll

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// modelRecord is record i of the flat model the segmented scroll is checked
// against: what Append stores for the i-th record of process proc.
func modelRecord(proc string, i int) Record {
	return Record{
		Proc:    proc,
		Seq:     uint64(i),
		Kind:    Kind(1 + i%8),
		MsgID:   fmt.Sprintf("m%d", i%17),
		Payload: []byte{byte(i), byte(i >> 8)},
		Lamport: uint64(i / 3),
	}
}

// fill appends model records [from, to) to s.
func fill(t testing.TB, s *Scroll, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		seq, err := s.Append(modelRecord(s.Proc(), i))
		if err != nil || seq != uint64(i) {
			t.Fatalf("append %d: seq %d, err %v", i, seq, err)
		}
	}
}

func model(proc string, n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = modelRecord(proc, i)
	}
	return out
}

// checkAgainst compares every read path of s with the flat model.
func checkAgainst(t *testing.T, s *Scroll, want []Record) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	if got := s.Records(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("Records() differs from the model (len %d, want %d)", len(got), len(want))
	}
	i := 0
	for r := range s.All() {
		if i >= len(want) || !reflect.DeepEqual(r, want[i]) {
			t.Fatalf("All() record %d differs from the model", i)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("All() yielded %d records, want %d", i, len(want))
	}
	var fp Fingerprinter
	digest, shape := fp.Fingerprint([]*Scroll{s}, 16)
	if digest != Digest(want) || shape != Shape(want, 16) {
		t.Fatalf("fingerprint of %d records differs from Digest/Shape over the model", len(want))
	}
	if len(want) > 0 && !reflect.DeepEqual(Merge(s), want) {
		t.Fatalf("Merge of %d records differs from the model", len(want))
	}
}

var segmentLengths = []int{0, 1, segLen - 1, segLen, segLen + 1, 2 * segLen, 3*segLen + 7}

func TestSegmentedScrollMatchesFlatModel(t *testing.T) {
	for _, n := range segmentLengths {
		s := NewMemory("p")
		fill(t, s, 0, n)
		checkAgainst(t, s, model("p", n))
	}
}

// All stops when the loop body does.
func TestAllEarlyBreak(t *testing.T) {
	s := NewMemory("p")
	fill(t, s, 0, 2*segLen)
	seen := 0
	for r := range s.All() {
		if r.Seq == segLen+3 {
			break
		}
		seen++
	}
	if seen != segLen+3 {
		t.Fatalf("saw %d records before the break, want %d", seen, segLen+3)
	}
}

// truncationPoints is every segment boundary of an n-record scroll, ±1.
func truncationPoints(n int) []int {
	var out []int
	for b := 0; b <= n; b += segLen {
		for _, d := range []int{-1, 0, 1} {
			if p := b + d; p >= 0 && p <= n {
				out = append(out, p)
			}
		}
	}
	return out
}

func TestTruncateAtSegmentBoundaries(t *testing.T) {
	const n = 3*segLen + 7
	want := model("p", n)
	for _, at := range truncationPoints(n) {
		s := NewMemory("p")
		fill(t, s, 0, n)
		s.Truncate(uint64(at))
		checkAgainst(t, s, want[:at])
		fill(t, s, at, n)
		checkAgainst(t, s, want)

		// Warm, the dropped segments take the re-appended records.
		recs := want[at:]
		allocs := testing.AllocsPerRun(5, func() {
			s.Truncate(uint64(at))
			for i := range recs {
				s.Append(recs[i])
			}
		})
		if allocs != 0 {
			t.Errorf("truncate to %d and re-append allocates %v times; want 0", at, allocs)
		}
	}
}

func TestDurableTruncateAcrossSegments(t *testing.T) {
	const n, at = 2*segLen + 5, segLen + 1
	dir := t.TempDir()
	s, err := OpenDurable("p", dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 0, n)
	s.Truncate(at)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDurable("p", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := model("p", n)
	checkAgainst(t, s, want[:at])
	fill(t, s, at, n) // the scroll resumes at the truncation point
	checkAgainst(t, s, want)
}

// Append may run while other goroutines copy or iterate: each reader sees a
// prefix of the scroll, in order. Run with -race.
func TestAppendRacesReaders(t *testing.T) {
	const n = 4*segLen + 9
	s := NewMemory("p")
	done := make(chan struct{})
	var wg sync.WaitGroup
	check := func(i int, r Record) {
		if r.Seq != uint64(i) || r.Lamport != uint64(i/3) {
			t.Errorf("reader saw record %d with seq %d lamport %d", i, r.Seq, r.Lamport)
		}
	}
	reader := func(read func()) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				read()
			}
		}
	}
	wg.Add(3)
	go reader(func() {
		for i, r := range s.Records() {
			check(i, r)
		}
	})
	go reader(func() {
		i := 0
		for r := range s.All() {
			check(i, r)
			i++
		}
	})
	go reader(func() {
		var fp Fingerprinter
		fp.Fingerprint([]*Scroll{s}, 16)
	})
	fill(t, s, 0, n)
	close(done)
	wg.Wait()
	checkAgainst(t, s, model("p", n))
}

// A long scroll is appended to, not recopied: it costs about its own size
// in bytes and about one allocation per segment.
func TestLongAppendByteCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("allocation ceilings are measured without the race detector's instrumentation")
	}
	const n = 100_000
	var r Record
	// The counters are process-wide, and the runtime allocates too: its first
	// collection sets up nine objects (so run one before measuring — alone or
	// shuffled first, this test would otherwise pay for it), and a collection
	// that lands inside the window can add one or two. The cheapest of three
	// appends is the scroll's own cost.
	runtime.GC()
	bytes, allocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		s := NewMemory("p")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			s.Append(r)
		}
		runtime.ReadMemStats(&after)
		bytes, allocs = min(bytes, after.TotalAlloc-before.TotalAlloc), min(allocs, after.Mallocs-before.Mallocs)
	}
	if limit := uint64(1.05 * n * float64(unsafe.Sizeof(Record{}))); bytes > limit {
		t.Errorf("appending %d records allocated %d bytes; want <= %d (1.05x the records themselves)", n, bytes, limit)
	}
	if limit := uint64(n/segLen + 16); allocs > limit {
		t.Errorf("appending %d records took %d allocations; want <= %d", n, allocs, limit)
	}
	t.Logf("%d records: %d bytes (%.3fx), %d allocations", n, bytes, float64(bytes)/(n*float64(unsafe.Sizeof(Record{}))), allocs)
}

// durableSegments writes a durable scroll whose records roll the WAL over
// several segment files and returns the directory, the files that hold
// records (in order) and the record count.
func durableSegments(t *testing.T) (dir string, files []string, n int) {
	t.Helper()
	dir = t.TempDir()
	s, err := OpenDurable("p", dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20) // three records fit a 4 MiB segment
	for n = 0; n < 11; n++ {
		if _, err := s.Append(Record{Kind: KindRecv, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(all)
	for _, f := range all {
		if st, err := os.Stat(f); err == nil && st.Size() > 0 {
			files = append(files, f)
		}
	}
	if len(files) < 3 {
		t.Fatalf("records landed in %d segment files; the test needs a middle one", len(files))
	}
	return dir, files, n
}

// tear cuts the last few bytes off a segment file, as a crash mid-write does.
func tear(t *testing.T, file string) {
	t.Helper()
	st, err := os.Stat(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(file, st.Size()-10); err != nil {
		t.Fatal(err)
	}
}

// A WAL that lost records anywhere but at its very end must not load as a
// shorter scroll: it would replay an execution that never happened.
func TestOpenDurableRejectsGaps(t *testing.T) {
	t.Run("missing middle segment", func(t *testing.T) {
		dir, files, _ := durableSegments(t)
		if err := os.Remove(files[1]); err != nil {
			t.Fatal(err)
		}
		if s, err := OpenDurable("p", dir); err == nil || !strings.Contains(err.Error(), "records missing") {
			t.Fatalf("OpenDurable = %v, %v; want an error naming the gap", s, err)
		}
	})
	t.Run("torn record in a non-final segment", func(t *testing.T) {
		dir, files, _ := durableSegments(t)
		tear(t, files[0])
		if s, err := OpenDurable("p", dir); err == nil || !strings.Contains(err.Error(), "1 records missing") {
			t.Fatalf("OpenDurable = %v, %v; want an error naming the gap", s, err)
		}
	})
	t.Run("segment present twice", func(t *testing.T) {
		dir, files, _ := durableSegments(t)
		b, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-00000099.wal"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := OpenDurable("p", dir); err == nil || !strings.Contains(err.Error(), "repeats records") {
			t.Fatalf("OpenDurable = %v, %v; want an error naming the repeat", s, err)
		}
	})
	t.Run("torn tail is a crash, not a gap", func(t *testing.T) {
		dir, files, n := durableSegments(t)
		tear(t, files[len(files)-1])
		s, err := OpenDurable("p", dir)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != n-1 {
			t.Fatalf("reopened scroll has %d records, want %d", s.Len(), n-1)
		}
		// The restarted process appends after the torn record's segment, and
		// the scroll still reloads whole.
		if seq, err := s.Append(Record{Kind: KindEnv}); err != nil || seq != uint64(n-1) {
			t.Fatalf("append after recovery: seq %d, err %v", seq, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = OpenDurable("p", dir); err != nil || s.Len() != n {
			t.Fatalf("second reopen: %v, err %v", s, err)
		}
		s.Close()
	})
}
