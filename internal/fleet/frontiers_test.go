package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

// mixedCost is a search whose applications differ widely in run cost and
// in failures to shrink (Buggy: every one of them has a seeded bug), so the
// coordinator's frontiers finish their batches, and their searches, at
// very different times.
func mixedCost(t *testing.T) chaos.SearchConfig {
	t.Helper()
	return chaos.SearchConfig{
		Apps:  fleetApps(t, "tokenring", "twopc", "election", "kvstore"),
		Buggy: true, Seed: 3, Budget: 24, CheckEvery: 64,
	}
}

// TestFleetMixedCostMatchesSearch: with every frontier driven at once, each
// still admits in candidate order, so a journaled fleet search over
// applications of unequal cost is byte-identical to chaos.Search at every
// worker count.
func TestFleetMixedCostMatchesSearch(t *testing.T) {
	scfg := mixedCost(t)
	inproc := chaos.Search(scfg)
	want := reportJSON(t, inproc)
	if len(inproc.Failures()) == 0 {
		t.Fatal("the mixed-cost search finds no failure: no shrink lease is exercised")
	}
	for _, workers := range []int{0, 1, 2, 4} {
		path := filepath.Join(t.TempDir(), "frontier.journal")
		rep, err := Search(Config{Search: scfg, Workers: workers, Journal: path, LeaseTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		diffJSON(t, fmt.Sprintf("workers=%d", workers), want, reportJSON(t, rep))
	}
}

// interleave rewrites the journal at path so that its lines alternate
// between applications, round robin, each application's lines in their
// order: the most interleaved journal concurrent frontiers could write.
func interleave(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	head, byApp, order := lines[0], map[string][]string{}, []string(nil)
	for _, l := range lines[1:] {
		if l == "" {
			continue
		}
		var line journalLine
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatal(err)
		}
		if byApp[line.App] == nil {
			order = append(order, line.App)
		}
		byApp[line.App] = append(byApp[line.App], l)
	}
	if len(order) < 2 {
		t.Fatalf("journal holds %d applications, want several", len(order))
	}
	out := []string{head}
	for i, added := 0, true; added; i++ {
		added = false
		for _, app := range order {
			if i < len(byApp[app]) {
				out, added = append(out, byApp[app][i]), true
			}
		}
	}
	if err := os.WriteFile(path, []byte(strings.Join(out, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFleetInterleavedJournalRecovers: recovery is keyed by (application,
// candidate index), so a journal whose lines interleave applications
// resumes exactly as one written a frontier at a time. A restart with no
// workers and no local fallback re-executes nothing and reproduces the
// report, and appends nothing to a journal that already holds every line;
// torn in the middle, the journal's intact prefix resumes to the same
// report.
func TestFleetInterleavedJournalRecovers(t *testing.T) {
	scfg := mixedCost(t)
	path := filepath.Join(t.TempDir(), "frontier.journal")
	cfg := Config{Search: scfg, Workers: 2, Journal: path, LeaseTimeout: 10 * time.Second}
	rep, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, rep)
	interleave(t, path)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "interleaved restart", want, reportJSON(t, resumeOnly(t, scfg, path)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, before) {
		t.Errorf("resuming a complete journal rewrote it (%d bytes → %d): every line was there already", len(before), len(data))
	}
	lines := strings.SplitAfter(string(data), "\n")
	torn := strings.Join(lines[:len(lines)/2], "") + `{"type":"run","app":"twopc","index":` // mid-append crash
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	rep2, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "torn interleaved journal", want, reportJSON(t, rep2))
}

// frontiersRunning reports whether any goroutine is still driving a
// frontier of Run.
func frontiersRunning() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Contains(buf, []byte("(*Coordinator).drive")) || bytes.Contains(buf, []byte("(*Coordinator).Run.func"))
}

// TestFleetPoisonWhileAppsInFlight: a lease poisoned while several
// applications' batches are leased ends the whole search. Run returns the
// terminal error, and only after every frontier goroutine it started has
// stopped.
func TestFleetPoisonWhileAppsInFlight(t *testing.T) {
	scfg := mixedCost(t)
	coord, err := NewCoordinator(Config{
		Search: scfg, NoLocalFallback: true,
		LeaseTimeout: 5 * time.Second, MaxRetries: 2, Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var mu sync.Mutex
	leased := map[string]bool{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sabotage(ctx, coord, func(l *Lease) {
		mu.Lock()
		leased[l.App] = true
		mu.Unlock()
	})
	waitSessions(t, coord, 1)

	rep, ok, err := runWithin(coord, 30*time.Second)
	if !ok {
		t.Fatal("Run did not return after the poisoning: a frontier is still waiting on its batch")
	}
	if err == nil || rep != nil {
		t.Fatalf("poisoned search returned %v, %v; want no report and the terminal error", rep, err)
	}
	if !strings.Contains(err.Error(), "no local fallback") {
		t.Errorf("error is not the terminal one: %v", err)
	}
	if frontiersRunning() {
		t.Error("Run returned while a frontier goroutine was still running")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(leased) < 2 {
		t.Errorf("leases of %d applications were handed out before the poisoning, want several in flight", len(leased))
	}
}

// BenchmarkJournalResume measures what a coordinator serves from cached
// results: it resumes a complete journal with no workers, so every
// candidate is answered from the journal, and its rate is set against one
// worker running the same schedules through chaos.Runner.Run. It reports
// the resume's rate (runs/s: opening the journal, which decodes every line,
// and Run), the worker's, and their ratio, x-worker, whose target is at
// least 10; serve-x-worker is the same ratio for Run alone, the frontiers
// admitting the journaled results once the journal is open.
func BenchmarkJournalResume(b *testing.B) {
	scfg := chaos.SearchConfig{Seed: 11, Budget: 48, CheckEvery: 64}
	path := filepath.Join(b.TempDir(), "frontier.journal")
	if _, err := Search(Config{Search: scfg, Journal: path}); err != nil {
		b.Fatal(err)
	}

	// One worker on the same schedules: the frontiers generate exactly the
	// candidates the search evaluated, run in sequence. The fastest of five
	// passes is the worker's rate, which keeps the ratios conservative.
	runs := 0
	var worker time.Duration
	for pass := range 5 {
		runs = 0
		var wall time.Duration
		for _, spec := range scfg.WithDefaults().Apps {
			f := chaos.NewFrontier(spec, scfg, chaos.StrategyGuided)
			for batch := f.NextBatch(); len(batch) > 0; batch = f.NextBatch() {
				for _, cand := range batch {
					t0 := time.Now()
					res := f.Runner().Run(cand.Schedule)
					wall += time.Since(t0)
					runs++
					f.Admit(cand, res)
				}
			}
		}
		if pass == 0 || wall < worker {
			worker = wall
		}
	}

	var serve time.Duration
	b.ResetTimer()
	for range b.N {
		coord, err := NewCoordinator(Config{Search: scfg, Journal: path, NoLocalFallback: true})
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		_, err = coord.Run()
		serve += time.Since(t0)
		coord.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	resumed := float64(runs*b.N) / b.Elapsed().Seconds()
	perWorker := float64(runs) / worker.Seconds()
	b.ReportMetric(resumed, "runs/s")
	b.ReportMetric(perWorker, "worker-runs/s")
	b.ReportMetric(resumed/perWorker, "x-worker")
	b.ReportMetric(float64(runs*b.N)/serve.Seconds()/perWorker, "serve-x-worker")
}
