package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"

	"repro/internal/chaos"
)

// journalLine is one JSONL record in the coordinator's journal.
//
//   - "config" (first line) pins the search parameters; a journal recorded
//     for a different search must not silently replay into this one.
//   - "run" records one evaluated candidate's result, keyed by (app,
//     global candidate index). These lines are what make restart lossless:
//     the frontier is a deterministic function of the results fed to it in
//     candidate order, so replaying journaled results through a fresh
//     frontier reconstructs the exact corpus, rng state and dedup tables
//     without re-executing a single schedule.
//   - "shrink" records one minimized failure, keyed by (app, violation
//     signature) — the same key the frontier dedups failures on.
//   - "corpus" records each admitted corpus entry as it happens. Replay
//     ignores these (they are derivable from "run" lines); they exist so
//     an operator can tail -f the frontier's growth and so external tools
//     can consume admitted schedules without understanding the frontier.
type journalLine struct {
	Type    string               `json:"type"`
	App     string               `json:"app,omitempty"`
	Index   *int                 `json:"index,omitempty"`
	Sig     string               `json:"sig,omitempty"`
	Result  *chaos.RunResult     `json:"result,omitempty"`
	Failure *chaos.SearchFailure `json:"failure,omitempty"`
	Entry   *chaos.CorpusEntry   `json:"entry,omitempty"`
	Config  *journalConfig       `json:"config,omitempty"`
}

// recoveredLine is what recovery decodes of a journal line: a corpus
// line's entry, which replay derives from run lines, is checked to be
// well-formed JSON (Unmarshal scans the whole line before decoding it) and
// dropped without being built.
type recoveredLine struct {
	journalLine
	Entry skipped `json:"entry"`
}

// skipped is a JSON value decoding drops.
type skipped struct{}

func (*skipped) UnmarshalJSON([]byte) error { return nil }

// journalConfig identifies the search a journal belongs to.
type journalConfig struct {
	Proto        int      `json:"proto"`
	Seed         int64    `json:"seed"`
	Budget       int      `json:"budget"`
	Buggy        bool     `json:"buggy,omitempty"`
	CheckEvery   uint64   `json:"check_every,omitempty"`
	ShrinkBudget int      `json:"shrink_budget,omitempty"`
	Apps         []string `json:"apps"`
}

// journal is the coordinator's append-only frontier journal plus the
// in-memory cache recovered from it. A nil *journal (journaling disabled)
// is valid: every method no-ops or misses.
type journal struct {
	mu      sync.Mutex // serializes appends: every frontier journals at once
	f       *os.File
	w       *bufio.Writer
	enc     *json.Encoder // writes lines into w
	runs    map[string]map[int]*chaos.RunResult
	shrinks map[string]map[string]*chaos.SearchFailure
	// Recovered counts how many cached results the journal restored, so
	// the coordinator can report what a restart skipped re-evaluating.
	recovered int
}

// openJournal opens (creating if needed) the journal at path and recovers
// every complete line. A torn trailing line — the coordinator died
// mid-append — is tolerated and ignored; a config line that does not match
// cfg is an error, because replaying another search's results would
// corrupt this one's determinism.
func openJournal(path string, cfg journalConfig) (*journal, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: open journal: %w", err)
	}
	j := &journal{
		f:       f,
		runs:    make(map[string]map[int]*chaos.RunResult),
		shrinks: make(map[string]map[string]*chaos.SearchFailure),
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: read journal: %w", err)
	}
	// Consume complete, parsable lines; stop at the first torn or corrupt
	// one. valid tracks the byte offset of intact data so appends resume
	// exactly there, never concatenating onto a torn tail.
	valid := 0
	first := true
	for {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // no terminator: torn tail (or clean EOF at valid)
		}
		var line recoveredLine
		if json.Unmarshal(data[valid:valid+nl], &line) != nil {
			break // corrupt line: everything before it is intact
		}
		if first {
			first = false
			if line.Type != "config" || line.Config == nil {
				f.Close()
				return nil, fmt.Errorf("fleet: journal %s does not start with a config line", path)
			}
			if !reflect.DeepEqual(*line.Config, cfg) {
				f.Close()
				return nil, fmt.Errorf("fleet: journal %s was recorded for a different search configuration", path)
			}
			valid += nl + 1
			continue
		}
		switch line.Type {
		case "run":
			if line.Index != nil && line.Result != nil {
				m := j.runs[line.App]
				if m == nil {
					m = make(map[int]*chaos.RunResult)
					j.runs[line.App] = m
				}
				m[*line.Index] = line.Result
				j.recovered++
			}
		case "shrink":
			if line.Failure != nil {
				m := j.shrinks[line.App]
				if m == nil {
					m = make(map[string]*chaos.SearchFailure)
					j.shrinks[line.App] = m
				}
				m[line.Sig] = line.Failure
				j.recovered++
			}
		}
		valid += nl + 1
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j.w = bufio.NewWriter(f)
	j.enc = json.NewEncoder(j.w)
	if first { // brand-new journal: pin the configuration
		if err := j.append(journalLine{Type: "config", Config: &cfg}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// append writes one line and flushes it to the OS, so a coordinator crash
// loses at most the line being written (tolerated as a torn tail on the
// next open). Lines of different applications interleave; recovery keys
// every line by application, so their order across applications is free.
func (j *journal) append(line journalLine) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// An Encoder writes what json.Marshal returns and a newline, in one
	// Write, and writes nothing when the line does not encode.
	if err := j.enc.Encode(&line); err != nil {
		return fmt.Errorf("fleet: journal append: %w", err)
	}
	return j.w.Flush()
}

// run returns the cached result for (app, candidate index), or nil.
func (j *journal) run(app string, index int) *chaos.RunResult {
	if j == nil {
		return nil
	}
	return j.runs[app][index]
}

// addRun journals one evaluated candidate.
func (j *journal) addRun(app string, index int, r *chaos.RunResult) error {
	if j == nil {
		return nil
	}
	i := index
	return j.append(journalLine{Type: "run", App: app, Index: &i, Result: r})
}

// shrink returns the cached minimized failure for (app, violation
// signature), or nil.
func (j *journal) shrink(app, sig string) *chaos.SearchFailure {
	if j == nil {
		return nil
	}
	return j.shrinks[app][sig]
}

// addShrink journals one minimized failure.
func (j *journal) addShrink(app, sig string, fail *chaos.SearchFailure) error {
	if j == nil {
		return nil
	}
	return j.append(journalLine{Type: "shrink", App: app, Sig: sig, Failure: fail})
}

// addCorpus journals one admitted corpus entry (informational; replay
// reconstructs the corpus from run lines).
func (j *journal) addCorpus(app string, e chaos.CorpusEntry) error {
	if j == nil {
		return nil
	}
	return j.append(journalLine{Type: "corpus", App: app, Entry: &e})
}

// close flushes and closes the journal file.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	j.w.Flush()
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
