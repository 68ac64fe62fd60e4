package main

import (
	"bufio"
	"container/heap"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The sandbox this benchmark runs in is not steady: identical reps read
// 2.1–4.3 s within ten minutes and whole runs drift 20–40 % for minutes at
// a time. The disturbance hits allocation-heavy code (a spin loop or a
// SHA-256 loop barely sees it), so the harness measures it with a probe of
// that kind — speedProbe, a fixed synthetic event loop over standard-library
// maps, heaps, JSON and SHA-256 that touches no code of this repository —
// run in a child process (its own heap and collector, so the program under
// test cannot move it) between the segments of every timed rep. Every time
// the harness reports as an end-to-end metric is divided by the median probe
// reading of the run over probeRefSeconds. Measured over 15 minutes of 0.25 s
// matrix reps with the probe interleaved: the probe tracked rep time with
// r = 0.94–0.99, and the quartile spread of 12–60 s block medians fell from
// 16–30 % raw to 2.5–4.6 % as a ratio.

// probeRefSeconds is one probe's duration on the 2-core reference box at
// its undisturbed speed. It only fixes the unit — reported seconds are
// seconds at reference speed — since parent and change are always compared
// on one machine.
const probeRefSeconds = 0.040

// probeEvery bounds the probe's share of a rep: a lap that comes sooner
// after the previous probe than this does not probe again.
const probeEvery = 250 * time.Millisecond

type probeEvent struct {
	at   uint64
	proc int
	pay  []byte
}

type probeQueue []*probeEvent

func (q probeQueue) Len() int           { return len(q) }
func (q probeQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q probeQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *probeQueue) Push(x any)        { *q = append(*q, x.(*probeEvent)) }
func (q *probeQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type probeRecord struct {
	Proc    int
	Seq     uint64
	Payload []byte
	Clock   map[string]uint64
}

// speedProbe runs the fixed calibration work — six processes exchanging
// 40,000 events through a priority queue, each step ticking, cloning and
// merging a vector clock, appending a record, and every fourth step
// JSON-encoding a small state map into a running SHA-256 — and returns how
// long it took.
func speedProbe() time.Duration {
	t0 := time.Now()
	names := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	clocks := make([]map[string]uint64, len(names))
	state := make([]map[string]int64, len(names))
	var q probeQueue
	for i := range names {
		clocks[i] = map[string]uint64{}
		for _, n := range names {
			clocks[i][n] = 0
		}
		state[i] = map[string]int64{"a": 1, "b": 2, "c": 3}
		heap.Push(&q, &probeEvent{at: uint64(i), proc: i, pay: make([]byte, 32)})
	}
	h := sha256.New()
	var log []probeRecord
	x := uint64(7)
	for step := 0; step < 40_000; step++ {
		e := heap.Pop(&q).(*probeEvent)
		p := e.proc
		clocks[p][names[p]]++
		log = append(log, probeRecord{Proc: p, Seq: uint64(step), Payload: e.pay, Clock: maps.Clone(clocks[p])})
		state[p]["a"] += int64(step)
		x = x*6364136223846793005 + 1442695040888963407
		to := int(x>>33) % len(names)
		for k, v := range clocks[p] {
			if v > clocks[to][k] {
				clocks[to][k] = v
			}
		}
		heap.Push(&q, &probeEvent{at: e.at + 1 + x%7, proc: to, pay: make([]byte, 32)})
		if step%4 == 0 {
			b, _ := json.Marshal(state[p]) // a map of strings to integers: cannot fail
			h.Write(b)
		}
		if len(log) == 4096 {
			for i := range log {
				h.Write(log[i].Payload)
			}
			log = log[:0]
		}
	}
	sink = h.Sum(nil)
	return time.Since(t0)
}

// probeChildEnv marks the child process that serves probe readings.
const probeChildEnv = "FIXD_BENCH_PROBE_CHILD"

// serveProbe is the child's loop: one probe run per request line, answered
// with its duration in nanoseconds, until standard input closes.
func serveProbe(stdin io.Reader, stdout io.Writer) error {
	speedProbe() // first-call costs stay out of the readings
	in := bufio.NewScanner(stdin)
	for in.Scan() {
		if _, err := fmt.Fprintln(stdout, int64(speedProbe())); err != nil {
			return err
		}
	}
	return in.Err()
}

// probeServer is the parent's handle on the probe child.
type probeServer struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// start launches the child, unless it already runs.
func (p *probeServer) start(root string) error {
	if p.cmd != nil {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), probeChildEnv+"=1")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmd, p.in, p.out = cmd, in, bufio.NewReader(out)
	return nil
}

// sample asks the child for one probe reading and waits for it; the caller
// is idle meanwhile, so the probe has a core to itself.
func (p *probeServer) sample() (time.Duration, error) {
	if _, err := io.WriteString(p.in, "probe\n"); err != nil {
		return 0, fmt.Errorf("probe child: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("probe child: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	return time.Duration(ns), err
}

// stop ends the child, if it runs, by closing its input, and waits for it to
// exit.
func (p *probeServer) stop() {
	if p.cmd == nil {
		return
	}
	p.in.Close()
	p.cmd.Wait() // the exit status of an idle helper carries nothing
}
