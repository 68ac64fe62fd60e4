package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden segments under testdata/ from the code under test")

// goldenPayloads are the fixed records the golden segments hold: short
// ones, an empty one and a multi-KiB one that overflows a segment by itself.
func goldenPayloads() [][]byte {
	big := make([]byte, 5000)
	for i := range big {
		big[i] = byte(i*7 + i>>8)
	}
	return [][]byte{[]byte("alpha"), {}, []byte("beta"), big, []byte("gamma"), {}, []byte("omega")}
}

// TestGoldenSegments pins the on-disk format: the segment files Append
// writes across a roll, and those Rewrite leaves behind, match the committed
// bytes file for file, and ReadAll returns the payloads from them. Rerun
// with -update to regenerate after a deliberate format change.
func TestGoldenSegments(t *testing.T) {
	payloads := goldenPayloads()
	for _, tc := range []struct {
		name  string
		write func(*Log) error
		want  [][]byte
	}{
		{"append", func(l *Log) error {
			for _, p := range payloads {
				if err := l.Append(p); err != nil {
					return err
				}
			}
			return nil
		}, payloads},
		{"rewrite", func(l *Log) error {
			for _, p := range [][]byte{[]byte("old-0"), []byte("old-1")} {
				if err := l.Append(p); err != nil {
					return err
				}
			}
			if err := l.Rewrite(payloads); err != nil {
				return err
			}
			return l.Append([]byte("after"))
		}, append(payloads[:len(payloads):len(payloads)], []byte("after"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{SegmentSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(l); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got := readDir(t, dir)
			golden := filepath.Join("testdata", tc.name)
			if *update {
				if err := os.RemoveAll(golden); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(golden, 0o755); err != nil {
					t.Fatal(err)
				}
				for name, b := range got {
					if err := os.WriteFile(filepath.Join(golden, name), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := readDir(t, golden)
			if len(got) != len(want) {
				t.Fatalf("wrote %d segment files, golden has %d", len(got), len(want))
			}
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Errorf("segment %s differs from the golden bytes", name)
				}
			}
			recs, err := ReadAll(golden)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != len(tc.want) {
				t.Fatalf("ReadAll returned %d records, want %d", len(recs), len(tc.want))
			}
			for i := range recs {
				if !bytes.Equal(recs[i], tc.want[i]) {
					t.Errorf("record %d = %q, want %q", i, recs[i], tc.want[i])
				}
			}
		})
	}
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}
