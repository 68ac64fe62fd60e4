// Package scroll implements the Scroll, FixD's common log of nondeterministic
// actions (paper §3.1, Fig. 1).
//
// Every nondeterministic action a process performs — receiving a message,
// drawing a random number, reading the clock or environment — is recorded
// together with its outcome. The record stream is sufficient to replay the
// process deterministically in isolation, treating remote entities as black
// boxes defined only by the recorded interaction (paper §2.2), which is the
// liblog/Flashback capability the Scroll substitutes for.
package scroll

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"sort"
	"sync"

	"repro/internal/vclock"
	"repro/internal/wal"
)

// Kind identifies the class of nondeterministic action a record captures.
type Kind uint8

// Record kinds.
const (
	KindRecv   Kind = iota + 1 // message delivery: payload is the message
	KindSend                   // message transmission (for trace reconstruction)
	KindRandom                 // random draw: payload is 8-byte LE uint64
	KindTime                   // virtual/wall clock read: payload is 8-byte LE uint64
	KindEnv                    // environment read: payload is the value
	KindCkpt                   // checkpoint marker: payload is checkpoint ID
	KindFault                  // locally detected fault: payload describes it
	KindCustom                 // application-defined nondeterminism
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindRecv:
		return "recv"
	case KindSend:
		return "send"
	case KindRandom:
		return "random"
	case KindTime:
		return "time"
	case KindEnv:
		return "env"
	case KindCkpt:
		return "ckpt"
	case KindFault:
		return "fault"
	case KindCustom:
		return "custom"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one logged nondeterministic action and its outcome.
type Record struct {
	Proc    string // process that performed the action
	Seq     uint64 // 0-based position in the process's scroll
	Kind    Kind
	MsgID   string // Recv/Send: message identity
	Peer    string // Recv/Send: remote endpoint
	Payload []byte // the outcome (message body, random bytes, ...)
	Lamport uint64 // Lamport timestamp for global total ordering
	Clock   vclock.VC
}

// encode serializes a record to a compact binary form.
//
// Layout: kind(1) | lamport(8) | seq(8) | proc | msgID | peer | payload |
// clock-entries, where each variable field is uvarint-length-prefixed and the
// clock is a count followed by (id, value) pairs.
func (r *Record) encode() []byte {
	return r.appendEncode(make([]byte, 0, 64+len(r.Payload)))
}

// appendEncode appends the record's binary encoding to buf and returns the
// extended buffer. The produced bytes are identical to encode's for the
// same record — the streaming Hasher depends on that.
func (r *Record) appendEncode(buf []byte) []byte {
	return appendEncodeClock(r.appendEncodePrefix(buf), r.Clock)
}

// appendEncodePrefix appends everything up to (excluding) the clock
// entries: kind, lamport, seq, the string fields and the payload.
func (r *Record) appendEncodePrefix(buf []byte) []byte {
	buf = append(buf, byte(r.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, r.Lamport)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	appendStr := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	appendStr(r.Proc)
	appendStr(r.MsgID)
	appendStr(r.Peer)
	buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
	buf = append(buf, r.Payload...)
	return buf
}

// appendEncodeClock appends the clock-entry suffix of the encoding: the
// count of non-zero components followed by their (id, value) pairs in id
// order — the order the clock's table already keeps them in.
func appendEncodeClock(buf []byte, clock vclock.VC) []byte {
	ids, counts := clock.Entries()
	set := 0
	for _, n := range counts {
		if n != 0 {
			set++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(set))
	for i, n := range counts {
		if n == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(ids[i])))
		buf = append(buf, ids[i]...)
		buf = binary.AppendUvarint(buf, n)
	}
	return buf
}

// Digest returns a hex SHA-256 over the binary encoding of the records.
// Two runs with identical scrolls produce identical digests, so a digest
// over a merged scroll is the replay-equality fingerprint the chaos
// harness compares across runs. It is a thin wrapper over the streaming
// Hasher; feed records incrementally to avoid materializing the slice.
func Digest(recs []Record) string {
	var h Hasher
	for i := range recs {
		h.Write(&recs[i])
	}
	return h.Sum()
}

// Shape returns a coarse event-shape signature of a record stream: for
// every process, the records of each kind are counted per Lamport window of
// the given bucket width, and each count is collapsed to its log2 bucket
// (0, 1, 2, 3–4, 5–8, ...). The signature is an FNV-64a hex digest of the
// canonical rendering of those buckets.
//
// Two runs share a shape when their executions have the same gross
// structure — which processes delivered, sent, faulted, and checkpointed
// roughly how much, in roughly which phase of the run — even when their
// exact payloads, orderings and Lamport values differ. That makes Shape
// the coverage signal for coverage-guided chaos search (internal/chaos):
// the exact Digest distinguishes almost every schedule, so on its own
// every fingerprint is a singleton; Shape deliberately aliases nearby
// interleavings so "new shape" means behaviorally new.
// Shape is a thin wrapper over the streaming ShapeAccumulator; feed records
// incrementally to avoid materializing the slice.
func Shape(recs []Record, bucket uint64) string {
	var a ShapeAccumulator
	a.Reset(bucket)
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.Sum()
}

// decodeRecord parses a record produced by encode. It accepts exactly what
// encode writes: clock entries that are out of id order, duplicated or
// zero-valued — which no writer produces — are rejected as corrupt rather
// than canonicalised, so decode followed by encode reproduces the input
// bytes and a record's digest cannot depend on how its bytes were damaged.
func decodeRecord(b []byte) (Record, error) {
	var r Record
	if len(b) < 17 {
		return r, errors.New("scroll: record too short")
	}
	r.Kind = Kind(b[0])
	r.Lamport = binary.LittleEndian.Uint64(b[1:9])
	r.Seq = binary.LittleEndian.Uint64(b[9:17])
	b = b[17:]
	readStr := func() (string, error) {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < n {
			return "", errors.New("scroll: truncated string")
		}
		s := string(b[sz : sz+int(n)])
		b = b[sz+int(n):]
		return s, nil
	}
	var err error
	if r.Proc, err = readStr(); err != nil {
		return r, err
	}
	if r.MsgID, err = readStr(); err != nil {
		return r, err
	}
	if r.Peer, err = readStr(); err != nil {
		return r, err
	}
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return r, errors.New("scroll: truncated payload")
	}
	r.Payload = append([]byte(nil), b[sz:sz+int(n)]...)
	b = b[sz+int(n):]
	cnt, sz := binary.Uvarint(b)
	if sz <= 0 {
		return r, errors.New("scroll: truncated clock count")
	}
	b = b[sz:]
	if cnt == 0 {
		return r, nil
	}
	if cnt > uint64(len(b))/2 { // an entry is at least two bytes
		return r, errors.New("scroll: truncated clock entries")
	}
	ids, counts := make([]string, cnt), make([]uint64, cnt)
	for i := range ids {
		if ids[i], err = readStr(); err != nil {
			return r, err
		}
		counts[i], sz = binary.Uvarint(b)
		if sz <= 0 {
			return r, errors.New("scroll: truncated clock value")
		}
		b = b[sz:]
	}
	if r.Clock, err = vclock.FromSorted(ids, counts); err != nil {
		return r, fmt.Errorf("scroll: %w", err)
	}
	return r, nil
}

// segLen is the number of records in one storage segment (about 104 KiB).
const segLen = 1024

// Scroll records the nondeterministic actions of a single process. It is
// safe for concurrent use. If backed by a WAL (see OpenDurable), records
// survive crashes.
//
// Records live in segments of segLen records, so a long scroll is appended
// to, never recopied. Segment 0 (head) grows by append: a short scroll is one
// small slice. Every later segment (tail) is allocated once at full length
// and its slice header never changes again, which is what lets a view be
// read outside the lock while Append proceeds.
type Scroll struct {
	mu       sync.Mutex
	proc     string
	head     []Record   // records [0, segLen)
	tail     [][]Record // tail[k] holds records [(k+1)*segLen, (k+2)*segLen)
	n        int        // records in the scroll
	log      *wal.Log   // nil for in-memory scrolls
	truncErr error      // deferred durable-truncation failure
}

// view is a read-only capture of a scroll's first n records. Append never
// writes memory a view reaches (it fills slots past n, or moves head to a
// new array), so a view taken under the lock may be read outside it; a
// Truncate followed by Append overwrites slots and so invalidates it.
type view struct {
	head []Record
	tail [][]Record
	n    int
}

// segs returns the number of segments holding the view's records.
func (v view) segs() int { return (v.n + segLen - 1) / segLen }

// seg returns the view's records in segment k.
func (v view) seg(k int) []Record {
	if k == 0 {
		return v.head[:min(v.n, segLen)]
	}
	return v.tail[k-1][:min(v.n-k*segLen, segLen)]
}

// appendTo appends the view's records to dst in order.
func (v view) appendTo(dst []Record) []Record {
	for k := range v.segs() {
		dst = append(dst, v.seg(k)...)
	}
	return dst
}

// all iterates over the view's records in order, in place.
func (v view) all(yield func(*Record) bool) {
	for k := range v.segs() {
		seg := v.seg(k)
		for i := range seg {
			if !yield(&seg[i]) {
				return
			}
		}
	}
}

// NewMemory returns an in-memory scroll for process proc.
func NewMemory(proc string) *Scroll { return &Scroll{proc: proc} }

// OpenDurable returns a scroll persisted under dir using a segmented WAL.
// Existing records in dir are loaded first, so a restarted process resumes
// its scroll where the crash left it. A record whose sequence number is not
// its position in the log means records before it are missing — a deleted
// segment file, or a damaged record in a segment that is not the last — and
// is an error: a scroll with a hole replays a different execution.
func OpenDurable(proc, dir string) (*Scroll, error) {
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	s := &Scroll{proc: proc, log: log}
	if err := s.load(dir); err != nil {
		log.Close()
		return nil, fmt.Errorf("scroll: load %s: %w", dir, err)
	}
	return s, nil
}

// load decodes the WAL under dir into the (empty) scroll, record by record.
func (s *Scroll) load(dir string) error {
	r, err := wal.NewReader(dir)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		b, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		rec, err := decodeRecord(b)
		if err != nil {
			return err
		}
		switch at := uint64(s.n); {
		case rec.Seq > at:
			return fmt.Errorf("record %d has seq %d: %d records missing before it", at, rec.Seq, rec.Seq-at)
		case rec.Seq < at:
			return fmt.Errorf("record %d has seq %d: the log repeats records", at, rec.Seq)
		}
		s.push(rec)
	}
}

// Proc returns the process ID this scroll belongs to.
func (s *Scroll) Proc() string { return s.proc }

// push stores r as record n. Caller holds mu (or is the constructor).
func (s *Scroll) push(r Record) {
	if s.n < segLen {
		s.head = append(s.head, r)
		s.n++
		return
	}
	k, i := s.n/segLen-1, s.n%segLen
	if k == len(s.tail) {
		if k < cap(s.tail) && s.tail[:k+1][k] != nil {
			s.tail = s.tail[:k+1] // a segment Truncate kept
		} else {
			if s.tail == nil {
				s.tail = make([][]Record, 0, 16) // past its first segment a scroll is a long one
			}
			s.tail = append(s.tail, make([]Record, segLen))
		}
	}
	s.tail[k][i] = r
	s.n++
}

// Append records an action. The record's Proc and Seq are assigned by the
// scroll; other fields are taken from r. It returns the assigned sequence.
func (s *Scroll) Append(r Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.Proc = s.proc
	r.Seq = uint64(s.n)
	s.push(r)
	if s.log != nil {
		if _, err := s.log.Append(r.encode()); err != nil {
			return r.Seq, err
		}
	}
	return r.Seq, nil
}

// Len returns the number of records.
func (s *Scroll) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// records returns a view of the records now in the scroll, taken under the
// scroll's lock and copy-free. Callers must not read it after a later
// Truncate (truncation reuses the segments).
func (s *Scroll) records() view {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view()
}

// view captures the scroll's records. Caller holds mu.
func (s *Scroll) view() view { return view{head: s.head, tail: s.tail, n: s.n} }

// Records returns a copy of all records in order, as one slice.
func (s *Scroll) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view().appendTo(make([]Record, 0, s.n))
}

// All iterates over the records in order without copying the scroll: each
// loop sees the records present when it starts and runs outside the
// scroll's lock, so the body may Append (to this scroll or any other). It
// must not Truncate this scroll.
func (s *Scroll) All() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		s.records().all(func(r *Record) bool { return yield(*r) })
	}
}

// Truncate discards all records at sequence >= seq. The Time Machine uses
// this when rolling a process back: the replayed future may differ, so the
// suffix of the scroll is invalidated (paper §3.2). Dropped segments stay
// allocated for the records appended next. Durable scrolls persist the
// truncation by rewriting their backing WAL; the error, if any, is returned
// by the next Close (truncation itself cannot fail in memory).
func (s *Scroll) Truncate(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq >= uint64(s.n) {
		return
	}
	s.n = int(seq)
	s.head = s.head[:min(s.n, segLen)]
	s.tail = s.tail[:max(s.view().segs()-1, 0)]
	if s.log != nil {
		payloads := make([][]byte, 0, s.n)
		for r := range s.view().all {
			payloads = append(payloads, r.encode())
		}
		if err := s.log.Rewrite(payloads); err != nil {
			s.truncErr = err
		}
	}
}

// Close releases the backing WAL, if any, and surfaces any deferred
// durable-truncation failure.
func (s *Scroll) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		err := s.log.Close()
		if s.truncErr != nil {
			return s.truncErr
		}
		return err
	}
	return s.truncErr
}

// ErrReplayExhausted is returned by a Replayer when the scroll has no more
// records of the requested kind.
var ErrReplayExhausted = errors.New("scroll: replay exhausted")

// ErrReplayDiverged is returned when the next record does not match the
// action the replaying process is attempting — the re-execution took a
// different path than the original run.
var ErrReplayDiverged = errors.New("scroll: replay diverged")

// Replayer feeds recorded outcomes back to a process being re-executed,
// providing the deterministic playback capability of liblog/Jockey (paper
// §2.3) without the remote entities being present.
type Replayer struct {
	mu   sync.Mutex
	recs []Record
	pos  int
}

// NewReplayer returns a replayer over the given records (in scroll order).
func NewReplayer(recs []Record) *Replayer { return &Replayer{recs: recs} }

// Pos returns the index of the next record to replay.
func (rp *Replayer) Pos() int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.pos
}

// Remaining returns how many records have not yet been replayed.
func (rp *Replayer) Remaining() int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return len(rp.recs) - rp.pos
}

// Next returns the next record of the given kind. Records of other kinds
// that merely annotate the stream (sends, checkpoints, faults) are verified
// to be skippable; if the next outcome-bearing record has a different kind,
// Next reports ErrReplayDiverged.
func (rp *Replayer) Next(kind Kind) (Record, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for rp.pos < len(rp.recs) {
		rec := rp.recs[rp.pos]
		if rec.Kind == kind {
			rp.pos++
			return rec, nil
		}
		// Annotation records are skipped transparently.
		if rec.Kind == KindSend || rec.Kind == KindCkpt || rec.Kind == KindFault {
			rp.pos++
			continue
		}
		return Record{}, fmt.Errorf("%w: want %v at seq %d, scroll has %v", ErrReplayDiverged, kind, rec.Seq, rec.Kind)
	}
	return Record{}, ErrReplayExhausted
}

// ExpectSend consumes the next send annotation and verifies the re-executed
// process sent the same message; divergence here means the replayed run is
// not following the recorded path.
func (rp *Replayer) ExpectSend(peer string, payload []byte) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for rp.pos < len(rp.recs) {
		rec := rp.recs[rp.pos]
		if rec.Kind == KindCkpt || rec.Kind == KindFault {
			rp.pos++
			continue
		}
		if rec.Kind != KindSend {
			return fmt.Errorf("%w: process sent but scroll has %v at seq %d", ErrReplayDiverged, rec.Kind, rec.Seq)
		}
		rp.pos++
		if rec.Peer != peer || string(rec.Payload) != string(payload) {
			return fmt.Errorf("%w: send to %s differs from recorded send to %s", ErrReplayDiverged, peer, rec.Peer)
		}
		return nil
	}
	return ErrReplayExhausted
}

// Merge combines the scrolls of several processes into one globally ordered
// record sequence (by Lamport timestamp, then process ID, then sequence),
// the "collective local logs ... combined and analyzed" view of paper §2.2.
func Merge(scrolls ...*Scroll) []Record {
	var all []Record
	for _, s := range scrolls {
		all = s.records().appendTo(all)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Lamport != b.Lamport {
			return a.Lamport < b.Lamport
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
	return all
}
