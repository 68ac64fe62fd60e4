package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
)

// fleetApps resolves registry applications by name.
func fleetApps(t *testing.T, names ...string) []apps.AppSpec {
	t.Helper()
	out := make([]apps.AppSpec, len(names))
	for i, n := range names {
		spec, err := apps.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = spec
	}
	return out
}

// reportJSON is the byte-identity yardstick: the full report, marshaled.
func reportJSON(t *testing.T, rep *chaos.SearchReport) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// diffJSON fails the test with the first point of divergence.
func diffJSON(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	n := min(len(want), len(got))
	at := n
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			at = i
			break
		}
	}
	lo, hi := max(0, at-120), min(n, at+120)
	t.Errorf("%s: report diverges at byte %d (len %d vs %d)\nwant ...%s...\ngot  ...%s...",
		label, at, len(want), len(got), want[lo:hi], got[lo:hi])
}

// waitSessions blocks until n worker sessions are connected, so tests
// control exactly which workers are in the fleet when leasing starts.
func waitSessions(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		got := c.sessions
		c.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d worker sessions", n)
}

// TestFleetMatchesSearchAcrossWorkerCounts is the core determinism claim:
// for a fixed (seed, budget) the fleet report — corpus schedules, shapes,
// digests, growth curves — is byte-identical to the in-process
// chaos.Search, at any worker count including zero (coordinator-local
// fallback only).
func TestFleetMatchesSearchAcrossWorkerCounts(t *testing.T) {
	scfg := chaos.SearchConfig{
		Apps: fleetApps(t, "bank", "kvstore"),
		Seed: 3, Budget: 24, CheckEvery: 64,
	}
	want := reportJSON(t, chaos.Search(scfg))
	for _, workers := range []int{0, 1, 2, 4} {
		rep, err := Search(Config{Search: scfg, Workers: workers, LeaseTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		diffJSON(t, "workers="+string(rune('0'+workers)), want, reportJSON(t, rep))
	}
}

// TestFleetBuggyArtifactsVerify: searching the seeded-bug kvstore through
// the fleet finds failures, the remote shrink produces the same minimized
// artifacts the in-process search does, and every fleet-found artifact
// replays green through the ordinary Artifact.Verify path.
func TestFleetBuggyArtifactsVerify(t *testing.T) {
	scfg := chaos.SearchConfig{
		Apps:  fleetApps(t, "kvstore"),
		Buggy: true, Seed: 1, Budget: 16, CheckEvery: 64,
	}
	want := chaos.Search(scfg)
	rep, err := Search(Config{Search: scfg, Workers: 2, LeaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "buggy kvstore", reportJSON(t, want), reportJSON(t, rep))
	fails := rep.Failures()
	if len(fails) == 0 {
		t.Fatal("fleet search found no failures on the seeded-bug kvstore")
	}
	for i, f := range fails {
		if f.Artifact == nil {
			t.Fatalf("failure %d has no artifact", i)
		}
		if err := f.Artifact.Verify(); err != nil {
			t.Errorf("fleet-found artifact %d does not replay: %v", i, err)
		}
	}
}

// TestFleetWorkerCrashMidBatch kills a worker mid-batch: it accepts its
// first lease and drops the connection without answering. The lease is
// reissued and the final report is byte-identical to a healthy
// single-worker fleet at the same budget.
func TestFleetWorkerCrashMidBatch(t *testing.T) {
	scfg := chaos.SearchConfig{
		Apps: fleetApps(t, "bank", "kvstore"),
		Seed: 5, Budget: 24, CheckEvery: 64,
	}
	want := reportJSON(t, chaos.Search(scfg))

	coord, err := NewCoordinator(Config{Search: scfg, LeaseTimeout: 5 * time.Second, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	healthy := &Worker{Join: coord.Addr(), Name: "healthy"}
	crasher := &Worker{Join: coord.Addr(), Name: "crasher", failOnLease: 1}
	go healthy.Run(ctx)
	go crasher.Run(ctx)
	waitSessions(t, coord, 2)

	rep, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "crashed worker", want, reportJSON(t, rep))
	reissues, _ := coord.Stats()
	if reissues < 1 {
		t.Errorf("crasher answered no lease yet reissues = %d, want >= 1", reissues)
	}
}

// TestFleetWorkerPartitionMidBatch partitions a worker: it accepts its
// first lease and holds it silently, far past the lease deadline. The
// coordinator's deadline fires, the lease is reissued, and the report is
// unchanged.
func TestFleetWorkerPartitionMidBatch(t *testing.T) {
	scfg := chaos.SearchConfig{
		Apps: fleetApps(t, "bank"),
		Seed: 5, Budget: 16, CheckEvery: 64,
	}
	want := reportJSON(t, chaos.Search(scfg))

	coord, err := NewCoordinator(Config{Search: scfg, LeaseTimeout: time.Second, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	healthy := &Worker{Join: coord.Addr(), Name: "healthy"}
	staller := &Worker{Join: coord.Addr(), Name: "staller", stallOnLease: 1, stallFor: time.Minute}
	go healthy.Run(ctx)
	go staller.Run(ctx)
	waitSessions(t, coord, 2)

	rep, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "partitioned worker", want, reportJSON(t, rep))
	reissues, _ := coord.Stats()
	if reissues < 1 {
		t.Errorf("partitioned lease was not reissued: reissues = %d", reissues)
	}
}

// TestFleetJournalRestart: a coordinator with a journal completes a
// search; a fresh coordinator on the same journal replays it to the
// byte-identical report with ZERO re-executions — proven by running the
// restart with no workers and no local fallback, where any journal miss
// would enqueue a lease nothing can serve.
func TestFleetJournalRestart(t *testing.T) {
	scfg := chaos.SearchConfig{
		Apps:  fleetApps(t, "kvstore"),
		Buggy: true, Seed: 1, Budget: 16, CheckEvery: 64,
	}
	path := filepath.Join(t.TempDir(), "frontier.journal")
	cfg := Config{Search: scfg, Workers: 1, Journal: path, LeaseTimeout: 10 * time.Second}
	rep1, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, rep1)

	coord, err := NewCoordinator(Config{Search: scfg, Journal: path, NoLocalFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if coord.Recovered() == 0 {
		t.Fatal("restarted coordinator recovered nothing from the journal")
	}
	type out struct {
		rep *chaos.SearchReport
		err error
	}
	ch := make(chan out, 1)
	go func() {
		rep, err := coord.Run()
		ch <- out{rep, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		diffJSON(t, "journal restart", want, reportJSON(t, o.rep))
	case <-time.After(30 * time.Second):
		t.Fatal("journal restart tried to re-execute schedules (blocked on a lease with no workers)")
	}
}

// TestFleetJournalTornTail: a journal whose tail was torn mid-append —
// half the lines gone, a partial record at the end — still recovers its
// intact prefix, and a re-run over it produces the identical report.
func TestFleetJournalTornTail(t *testing.T) {
	scfg := chaos.SearchConfig{
		Apps: fleetApps(t, "bank"),
		Seed: 9, Budget: 16, CheckEvery: 64,
	}
	path := filepath.Join(t.TempDir(), "frontier.journal")
	cfg := Config{Search: scfg, Workers: 1, Journal: path, LeaseTimeout: 10 * time.Second}
	rep1, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, rep1)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	keep := lines[:len(lines)/2]
	torn := strings.Join(keep, "") + `{"type":"run","app":"bank","index":` // mid-append crash
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	rep2, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "torn journal", want, reportJSON(t, rep2))
}

// TestFleetJournalConfigMismatch: a journal recorded for a different
// search must be rejected, not silently replayed.
func TestFleetJournalConfigMismatch(t *testing.T) {
	scfg := chaos.SearchConfig{Apps: fleetApps(t, "bank"), Seed: 2, Budget: 8, CheckEvery: 64}
	path := filepath.Join(t.TempDir(), "frontier.journal")
	coord, err := NewCoordinator(Config{Search: scfg, Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()

	scfg.Seed = 3
	if _, err := NewCoordinator(Config{Search: scfg, Journal: path}); err == nil {
		t.Fatal("coordinator accepted a journal recorded under a different seed")
	}
}

// TestFleetConfigValidation: the combinations that cannot work are
// rejected up front.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := Search(Config{NoLocalFallback: true}); err == nil {
		t.Error("NoLocalFallback with zero workers must error, not hang")
	}
	bad := chaos.SearchConfig{Apps: []apps.AppSpec{{Name: "not-registered"}}}
	if _, err := NewCoordinator(Config{Search: bad}); err == nil {
		t.Error("unregistered app must be rejected: workers cannot resolve it")
	}
}

// dialRaw opens a bare client connection to the coordinator for tests
// that need handshake-level control a Worker does not expose.
func dialRaw(t *testing.T, coord *Coordinator) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestFleetSlowHandshake pins the Hello deadline to configuration: a
// worker slower than HelloTimeout is rejected, one inside the (raised)
// window is admitted. The deadline used to be hard-coded at 5s, so a slow
// but honest worker on a congested link could never join a coordinator
// that wanted a tighter or looser handshake policy.
func TestFleetSlowHandshake(t *testing.T) {
	scfg := chaos.SearchConfig{Apps: fleetApps(t, "bank"), Seed: 1, Budget: 4}

	// Too slow: the Hello lands after HelloTimeout, the session is never
	// admitted and the connection is closed under us (an immediate EOF, not
	// a client-side read timeout — that would mean we were admitted and
	// left waiting for a lease).
	strict, err := NewCoordinator(Config{Search: scfg, HelloTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	conn := dialRaw(t, strict)
	time.Sleep(400 * time.Millisecond)
	WriteFrame(conn, &Frame{Type: FrameHello, Hello: &Hello{Proto: ProtoVersion, Name: "slow"}})
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ReadFrame(conn); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("slow handshake was admitted (read err = %v), want connection closed", err)
	}
	strict.mu.Lock()
	sessions := strict.sessions
	strict.mu.Unlock()
	if sessions != 0 {
		t.Fatalf("rejected handshake still counted: %d sessions", sessions)
	}

	// Same delay, generous window: admitted.
	lax, err := NewCoordinator(Config{Search: scfg, HelloTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer lax.Close()
	conn2 := dialRaw(t, lax)
	time.Sleep(400 * time.Millisecond)
	if err := WriteFrame(conn2, &Frame{Type: FrameHello, Hello: &Hello{Proto: ProtoVersion, Name: "slow"}}); err != nil {
		t.Fatal(err)
	}
	waitSessions(t, lax, 1)
}

// TestFleetPoisonedLeaseFailsSearch: with NoLocalFallback, a lease that
// every worker attempt fails must poison the search with a descriptive
// error after MaxRetries — it used to be re-queued (and counted as a
// reissue) forever, hanging the search. The saboteur drops every lease it
// is handed, so the single task burns exactly MaxRetries reissues and the
// local fallback is never used.
func TestFleetPoisonedLeaseFailsSearch(t *testing.T) {
	scfg := chaos.SearchConfig{Apps: fleetApps(t, "bank"), Seed: 5, Budget: 8, CheckEvery: 64}
	coord, err := NewCoordinator(Config{
		Search: scfg, NoLocalFallback: true,
		LeaseTimeout: 5 * time.Second, MaxRetries: 2, Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // saboteur: hello, take a lease, drop the connection
		for ctx.Err() == nil {
			conn, err := net.Dial("tcp", coord.Addr())
			if err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			WriteFrame(conn, &Frame{Type: FrameHello, Hello: &Hello{Proto: ProtoVersion, Name: "saboteur"}})
			f, err := ReadFrame(conn)
			conn.Close()
			if err == nil && f.Type == FrameDone {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	waitSessions(t, coord, 1)

	rep, err := coord.Run()
	if err == nil {
		t.Fatal("poisoned lease did not fail the search")
	}
	if rep != nil {
		t.Fatalf("failed search returned a report: %+v", rep)
	}
	if !strings.Contains(err.Error(), "no local fallback") || !strings.Contains(err.Error(), "bank") {
		t.Errorf("terminal error is not descriptive: %v", err)
	}
	reissues, locals := coord.Stats()
	if reissues != 2 {
		t.Errorf("reissues = %d, want exactly MaxRetries (2)", reissues)
	}
	if locals != 0 {
		t.Errorf("NoLocalFallback ran %d tasks locally", locals)
	}
}

// TestFleetRequeueStats pins the reissue accounting directly: handing a
// lease to the local fallback takes it out of the fleet and must not
// count as a reissue, while exhausting retries under NoLocalFallback
// poisons the coordinator without inflating either stat.
func TestFleetRequeueStats(t *testing.T) {
	scfg := chaos.SearchConfig{Apps: fleetApps(t, "bank"), Seed: 1, Budget: 4}
	runner, err := chaos.RunnerFor("bank", false, 1, true)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := NewCoordinator(Config{Search: scfg, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tk := &task{lease: Lease{App: "bank"}, runner: runner, attempts: 2, done: make(chan taskOut, 1)}
	coord.requeue(tk) // attempts 3 > MaxRetries: local handoff
	select {
	case <-tk.done:
	case <-time.After(5 * time.Second):
		t.Fatal("local fallback never ran the handed-off task")
	}
	if reissues, locals := coord.Stats(); reissues != 0 || locals != 1 {
		t.Errorf("local handoff: reissues = %d locals = %d, want 0 and 1", reissues, locals)
	}

	poisoned, err := NewCoordinator(Config{Search: scfg, MaxRetries: 2, NoLocalFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	defer poisoned.Close()
	tk2 := &task{lease: Lease{App: "bank"}, runner: runner, attempts: 2, done: make(chan taskOut, 1)}
	poisoned.requeue(tk2)
	select {
	case <-poisoned.terminal:
	default:
		t.Fatal("exhausted lease did not poison the coordinator")
	}
	if poisoned.terminalErr == nil || !strings.Contains(poisoned.terminalErr.Error(), "bank") {
		t.Errorf("terminal error is not descriptive: %v", poisoned.terminalErr)
	}
	if reissues, locals := poisoned.Stats(); reissues != 0 || locals != 0 {
		t.Errorf("poisoning inflated stats: reissues = %d locals = %d", reissues, locals)
	}
}

// TestFleetSmoke is the CI fleet smoke: a coordinator plus three
// loopback-TCP workers over the full registry at a small budget, checked
// byte-identical against the in-process search. CI runs it under -race.
func TestFleetSmoke(t *testing.T) {
	scfg := chaos.SearchConfig{Seed: 1, Budget: 8, CheckEvery: 64}
	want := reportJSON(t, chaos.Search(scfg))
	rep, err := Search(Config{Search: scfg, Workers: 3, LeaseTimeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "smoke", want, reportJSON(t, rep))
	if shapes, digests := rep.Totals(); shapes == 0 || digests == 0 {
		t.Errorf("smoke fleet found no coverage: %d shapes, %d digests", shapes, digests)
	}
}
