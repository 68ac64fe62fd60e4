// Package wal implements a segmented, checksummed, append-only record log.
//
// The Scroll (paper §3.1) needs durable storage that survives process
// crashes: liblog writes libc results to a file, Flashback logs at kernel
// level. This package is the Go equivalent: length-prefixed records with
// CRC-32 integrity, split across fixed-size segment files.
//
// Record layout (little endian), framed in one place (Log.write):
//
//	uint32 length | uint32 crc32(payload) | payload
//
// Read rules, applied in one place (readSegment) to each segment in index
// order: a header or payload cut short by the end of its segment, or a
// final record whose checksum fails, is the tail a crash tore mid-append
// and ends that segment; a checksum mismatch on any earlier record is
// ErrCorrupt. Open reads no record: a caller recovers a log with ReadAll
// first and refuses a corrupt one before it opens the log to append.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	headerSize = 8 // uint32 length + uint32 crc
	// DefaultSegmentSize is the default maximum byte size of one segment file.
	DefaultSegmentSize = 4 << 20
	segPrefix          = "seg-"
	segSuffix          = ".wal"
)

// ErrCorrupt is returned by ReadAll when a record before the end of its
// segment fails its checksum (a torn final record is dropped instead,
// matching crash-recovery semantics).
var ErrCorrupt = errors.New("wal: corrupt record")

// Options configures a Log.
type Options struct {
	// SegmentSize is the maximum size in bytes of a segment file before the
	// log rolls to a new one. Zero means DefaultSegmentSize.
	SegmentSize int64
	// Sync forces an fsync after every append. Slower, but a crash loses at
	// most a torn final record rather than the OS write-back window.
	Sync bool
}

// Log is an append-only record log stored in a directory of segment files.
// It is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	seg     *os.File // active segment
	segIdx  int      // index of the next segment to create
	segSize int64    // bytes written to active segment
	buf     []byte   // the record being written, framed
	closed  bool
}

// Open opens (or creates) a log in dir for appending. Appends go to a fresh
// segment after every existing one.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if len(segs) > 0 {
		l.segIdx = segs[len(segs)-1] + 1
	}
	if err := l.roll(); err != nil {
		return nil, err
	}
	return l, nil
}

func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix))
}

// segments returns the sorted indices of the segment files in dir; a
// directory that does not exist holds none.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		idx, err := strconv.Atoi(num)
		if err != nil {
			continue // not ours
		}
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// roll closes the active segment and opens the next one.
func (l *Log) roll() error {
	if l.seg != nil {
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
	}
	f, err := os.OpenFile(segPath(l.dir, l.segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.seg = f
	l.segIdx++
	l.segSize = 0
	return nil
}

// write frames one record onto the active segment, header and payload in
// one write from a buffer the log reuses. Caller holds mu.
func (l *Log) write(payload []byte) error {
	buf := slices.Grow(l.buf[:0], headerSize+len(payload))[:headerSize]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	l.buf = append(buf, payload...)
	if _, err := l.seg.Write(l.buf); err != nil {
		return fmt.Errorf("wal: write record: %w", err)
	}
	l.segSize += headerSize + int64(len(payload))
	return nil
}

// Append writes one record, rolling to a new segment first when the record
// would overflow a non-empty one.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: append to closed log")
	}
	if l.segSize > 0 && l.segSize+headerSize+int64(len(payload)) > l.opts.SegmentSize {
		if err := l.roll(); err != nil {
			return err
		}
	}
	if err := l.write(payload); err != nil {
		return err
	}
	if l.opts.Sync {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil {
		return nil
	}
	return l.seg.Sync()
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			l.seg.Close()
			return err
		}
		return l.seg.Close()
	}
	return nil
}

// Rewrite atomically replaces the log's contents with the given records:
// they are written to one fresh segment and the old segments are removed.
// The log must be open; subsequent appends continue after the new
// contents. The Scroll uses this to persist truncation after a rollback
// (paper §3.2: the rolled-back suffix of the log is invalid).
func (l *Log) Rewrite(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: rewrite on closed log")
	}
	old, err := segments(l.dir)
	if err != nil {
		return err
	}
	// Roll to a fresh segment beyond all existing ones, write the new
	// contents, then unlink the old segments. The window between the new
	// generation's sync and the unlinks is not atomic: a crash inside it
	// leaves records of both generations visible and requires operator
	// attention — the same trade-off Flashback documents for its logs.
	if err := l.roll(); err != nil {
		return err
	}
	for _, p := range payloads {
		if err := l.write(p); err != nil {
			return fmt.Errorf("wal: rewrite: %w", err)
		}
	}
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: rewrite sync: %w", err)
	}
	for _, idx := range old {
		if err := os.Remove(segPath(l.dir, idx)); err != nil {
			return fmt.Errorf("wal: rewrite cleanup: %w", err)
		}
	}
	return nil
}

// ReadAll returns every record in the log directory, in order, by the read
// rules of the package doc. A directory that does not exist is an empty log.
func ReadAll(dir string) ([][]byte, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, idx := range segs {
		if out, err = readSegment(out, segPath(dir, idx)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readSegment appends the records of one segment file to out.
func readSegment(out [][]byte, path string) ([][]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: read segment: %w", err)
	}
	for off := 0; len(b)-off >= headerSize; {
		end := off + headerSize + int(binary.LittleEndian.Uint32(b[off:]))
		if end > len(b) {
			break // torn final record
		}
		payload := b[off+headerSize : end : end]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[off+4:]) {
			if end == len(b) {
				break // torn final record
			}
			return nil, fmt.Errorf("%w: segment %s offset %d", ErrCorrupt, path, off)
		}
		out = append(out, payload)
		off = end
	}
	return out, nil
}
