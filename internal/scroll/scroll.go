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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"strings"
	"sync"
	"unsafe"

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
// same record — the streaming hasher depends on that.
func (r *Record) appendEncode(buf []byte) []byte {
	return appendEncodeClock(appendRecord(buf, r.Kind, r.Lamport, r.Seq, r.Proc, r.MsgID, r.Peer, alias(r.Payload)), r.Clock)
}

// appendRecord appends a record's encoding but its clock.
func appendRecord(buf []byte, kind Kind, lamport, seq uint64, proc, msgID, peer, payload string) []byte {
	buf = append(buf, byte(kind))
	buf = binary.LittleEndian.AppendUint64(buf, lamport)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = appendString(appendString(buf, proc), msgID)
	return appendString(appendString(buf, peer), payload)
}

// appendString appends s uvarint-length-prefixed, as the encoding writes
// every variable field.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
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
		if n != 0 {
			buf = binary.AppendUvarint(appendString(buf, ids[i]), n)
		}
	}
	return buf
}

// Digest returns a hex SHA-256 over the binary encoding of the records.
// Two runs with identical scrolls produce identical digests, so a digest
// over a merged scroll is the replay-equality fingerprint the chaos
// harness compares across runs. The Fingerprinter computes it over several
// scrolls' merge without materializing the merged slice.
func Digest(recs []Record) string {
	var h hasher
	h.reset()
	for i := range recs {
		h.write(&recs[i])
	}
	return h.digest()
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

// segLen is the number of records in one storage segment (56 KiB).
const segLen = 1024

// entry is what a scroll cannot derive of a record: Seq is its position,
// Proc and Peer slots in the name table, and the payload a string over the
// bytes Append was given. isNil tells a nil payload from an empty one.
type entry struct {
	lamport        uint64
	clock          vclock.VC
	msgID, payload string
	peer           uint32 // durable keys are peers too: a table grows with the key space
	proc           uint16 // 0 but in a log loaded under another name
	kind           Kind
	isNil          bool
}

// alias returns a string over b's bytes, shared rather than copied.
func alias(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// bytes returns the payload the entry was appended with, shared.
func (e *entry) bytes() []byte {
	if e.payload == "" && !e.isNil {
		return []byte{}
	}
	return unsafe.Slice(unsafe.StringData(e.payload), len(e.payload)) // nil for alias(nil)
}

// Scroll records the nondeterministic actions of a single process. It is
// safe for concurrent use. If backed by a WAL (see OpenDurable), records
// survive crashes.
//
// Records live as entries in segments of segLen, so a long scroll is
// appended to, never recopied. Segment 0 (head) and the name table grow by
// append: a short scroll is one small slice. Every later segment (tail) is
// allocated once at full length and its slice header never changes again,
// which is what lets a view be read outside the lock while Append proceeds.
type Scroll struct {
	mu       sync.Mutex
	proc     string
	head     []entry           // records [0, segLen)
	tail     [][]entry         // tail[k] holds records [(k+1)*segLen, (k+2)*segLen)
	n        int               // records in the scroll
	names    []string          // proc, "", then every other name as it first appears
	index    map[string]uint32 // the slots of names[nameScan:]
	lastPeer uint32            // the slot name found last
	log      *wal.Log          // nil for in-memory scrolls
	enc      []byte            // a durable record's encoding, reused
	truncErr error             // deferred durable-truncation failure
	// disorder is 1 + the index of the first record that sorts before its
	// predecessor by Lamport time or names another process than the
	// scroll's, 0 if none: a scroll without one streams straight into the
	// Fingerprinter's merge. Every recording keeps it 0.
	disorder int
}

// view is a read-only capture of a scroll's first n records. Append never
// writes memory a view reaches (it fills slots past n, or moves head or names
// to a new array), so a view taken under the lock may be read outside it; a
// Truncate followed by Append overwrites slots and so invalidates it.
type view struct {
	head   []entry
	tail   [][]entry
	names  []string
	n      int
	sorted bool // Lamport-nondecreasing, every record of the scroll's process
}

// segs returns the number of segments holding the view's records.
func (v view) segs() int { return (v.n + segLen - 1) / segLen }

// seg returns the view's entries in segment k.
func (v view) seg(k int) []entry {
	if k == 0 {
		return v.head[:min(v.n, segLen)]
	}
	return v.tail[k-1][:min(v.n-k*segLen, segLen)]
}

// all iterates over the view's records in order, rebuilt from the entries.
func (v view) all(yield func(Record) bool) {
	for k := range v.segs() {
		seg := v.seg(k)
		for i := range seg {
			e := &seg[i]
			if !yield(Record{Proc: v.names[e.proc], Seq: uint64(k*segLen + i), Kind: e.kind, MsgID: e.msgID,
				Peer: v.names[e.peer], Payload: e.bytes(), Lamport: e.lamport, Clock: e.clock}) {
				return
			}
		}
	}
}

// NewMemory returns an in-memory scroll for process proc.
func NewMemory(proc string) *Scroll { return &Scroll{proc: proc, names: []string{proc, ""}} }

// OpenDurable returns a scroll persisted under dir using a segmented WAL.
// Existing records in dir are loaded first, so a restarted process resumes
// its scroll where the crash left it; a log that does not load is refused
// before the WAL is opened to append to it. A record whose sequence number
// is not its position in the log means records before it are missing — a
// deleted segment file, or a damaged record in a segment that is not the
// last — and is an error: a scroll with a hole replays a different
// execution.
func OpenDurable(proc, dir string) (*Scroll, error) {
	recs, err := wal.ReadAll(dir)
	s := NewMemory(proc)
	if err == nil {
		err = s.load(recs)
	}
	if err != nil {
		return nil, fmt.Errorf("scroll: load %s: %w", dir, err)
	}
	if s.log, err = wal.Open(dir, wal.Options{}); err != nil {
		return nil, err
	}
	return s, nil
}

// load decodes WAL records into the (empty) scroll, in order.
func (s *Scroll) load(recs [][]byte) error {
	for _, b := range recs {
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
		if rec.Proc != s.proc && s.disorder == 0 { // a log opened under another name
			s.disorder = s.n + 1
		}
		proc, perr := s.name(rec.Proc)
		peer, err := s.name(rec.Peer)
		if err = cmp.Or(perr, err); err != nil || proc > math.MaxUint16 {
			return cmp.Or(err, fmt.Errorf("record %d: process %q is name %d; a process must be one of the first %d", s.n, rec.Proc, proc, math.MaxUint16+1))
		}
		s.push(&rec, uint16(proc), peer)
	}
	return nil
}

// Proc returns the process ID this scroll belongs to.
func (s *Scroll) Proc() string { return s.proc }

const nameScan = 16 // the name table's slots name scans; index holds the rest

// name returns the slot of name in the name table, adding it if it is new.
// A recording's peers are a few processes, but durable keys are peers too —
// kvstore names one per key, mservice one per request — so past its first
// nameScan slots the table is indexed. It holds 2^32 slots: a scroll that
// filled it would hold 2^32 records. Caller holds mu.
func (s *Scroll) name(name string) (uint32, error) {
	if name == "" {
		return 1, nil
	}
	if name == s.names[s.lastPeer] {
		return s.lastPeer, nil
	}
	j := slices.Index(s.names[:min(len(s.names), nameScan)], name)
	i, ok := uint32(j), j >= 0
	if !ok {
		i, ok = s.index[name]
	}
	if !ok {
		if i = uint32(len(s.names)); uint64(len(s.names)) > math.MaxUint32 {
			return 0, fmt.Errorf("scroll: %s: %q would be name %d; a scroll holds %d", s.proc, name, len(s.names), uint64(math.MaxUint32))
		}
		if s.names = append(s.names, name); i >= nameScan {
			if s.index == nil {
				s.index = make(map[string]uint32)
			}
			s.index[name] = i
		}
	}
	s.lastPeer = i
	return i, nil
}

// push stores r as record n, its process and peer at the given slots of the
// name table. Caller holds mu (or is the constructor).
func (s *Scroll) push(r *Record, proc uint16, peer uint32) {
	e := entry{lamport: r.Lamport, clock: r.Clock, msgID: r.MsgID, payload: alias(r.Payload),
		peer: peer, proc: proc, kind: r.Kind, isNil: r.Payload == nil}
	if s.disorder == 0 && s.n > 0 && e.lamport < s.at(s.n-1).lamport {
		s.disorder = s.n + 1
	}
	if s.n < segLen {
		s.head = append(s.head, e)
		s.n++
		return
	}
	k, i := s.n/segLen-1, s.n%segLen
	if k == len(s.tail) {
		if k < cap(s.tail) && s.tail[:k+1][k] != nil {
			s.tail = s.tail[:k+1] // a segment Truncate kept
		} else {
			if s.tail == nil {
				s.tail = make([][]entry, 0, 16) // past its first segment a scroll is a long one
			}
			s.tail = append(s.tail, make([]entry, segLen))
		}
	}
	s.tail[k][i] = e
	s.n++
}

// at returns entry i. Caller holds mu.
func (s *Scroll) at(i int) *entry {
	if i < segLen {
		return &s.head[i]
	}
	return &s.tail[i/segLen-1][i%segLen]
}

// Append records an action. The record's Proc and Seq are assigned by the
// scroll; other fields are taken from r. It returns the assigned sequence.
// r.Payload is kept, not copied, as a Record copy keeps it (the scroll's
// string drops only the capacity): its bytes must not change afterwards. A
// peer that would overflow the name table (see name) is an error, and the
// record is not kept.
func (s *Scroll) Append(r Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.Proc, r.Seq = s.proc, uint64(s.n)
	peer, err := s.name(r.Peer)
	if err != nil {
		return r.Seq, err
	}
	s.push(&r, 0, peer)
	if s.log != nil {
		s.enc = r.appendEncode(s.enc[:0])
		return r.Seq, s.log.Append(s.enc)
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
func (s *Scroll) view() view {
	return view{head: s.head, tail: s.tail, names: s.names, n: s.n, sorted: s.disorder == 0}
}

// Records returns a copy of all records in order, as one slice.
func (s *Scroll) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.AppendSeq(make([]Record, 0, s.n), s.view().all)
}

// All iterates over the records in order without copying the scroll: each
// loop sees the records present when it starts and runs outside the
// scroll's lock, so the body may Append (to this scroll or any other). It
// must not Truncate this scroll.
func (s *Scroll) All() iter.Seq[Record] {
	return func(yield func(Record) bool) { s.records().all(yield) }
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
	if s.disorder > s.n {
		s.disorder = 0
	}
	if s.n == 0 { // so a pooled scroll's table lists only this run's names
		s.names, s.lastPeer = s.names[:2], 0
		clear(s.index)
	}
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

// InTransit yields the messages in transit across a cut of the scrolls (a
// recovery line): the sends recorded before their sender's cut whose
// receive is not recorded before their receiver's, in the order of scrolls,
// then of records. cut maps a process to its position; one it does not name
// is cut at its full length. One receive settles both copies of a
// duplicated send: they share its message ID.
func InTransit(scrolls []*Scroll, cut map[string]uint64) iter.Seq[Record] {
	return func(yield func(Record) bool) {
		views := make([]view, len(scrolls))
		received := make(map[string]bool)
		for i, s := range scrolls {
			views[i] = s.records()
			if c, ok := cut[s.proc]; ok && c < uint64(views[i].n) {
				views[i].n = int(c)
			}
			for r := range views[i].all {
				if r.Kind == KindRecv {
					received[r.MsgID] = true
				}
			}
		}
		for _, v := range views {
			for r := range v.all {
				if r.Kind == KindSend && !received[r.MsgID] && !yield(r) {
					return
				}
			}
		}
	}
}

// Merge combines the scrolls of several processes into one globally ordered
// record sequence (by Lamport timestamp, then process ID, then sequence),
// the "collective local logs ... combined and analyzed" view of paper §2.2.
// Records equal in all three keep the order of the scrolls given.
func Merge(scrolls ...*Scroll) []Record {
	var all []Record
	for _, s := range scrolls {
		all = slices.AppendSeq(all, s.records().all)
	}
	sortMerged(all)
	return all
}

// sortMerged sorts records into Merge's order, stably.
func sortMerged(recs []Record) {
	slices.SortStableFunc(recs, func(a, b Record) int {
		if a.Lamport != b.Lamport {
			return cmp.Compare(a.Lamport, b.Lamport)
		}
		if a.Proc != b.Proc {
			return strings.Compare(a.Proc, b.Proc)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}
