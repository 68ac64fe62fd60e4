package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
)

// fleetWorkers is the fleet size: coordinator plus two loopback-TCP
// workers, one per core of the reference box.
const fleetWorkers = 2

// fleetHunt is bug_hunt's registry search pushed through fleet.Search: the
// same run layer, but every candidate crosses frame encode/decode, a lease
// round trip and a journal append.
type fleetHunt struct {
	opt     options
	tmp     string
	journal int                   // journals written so far; each search needs a fresh one
	set0    []*chaos.SearchReport // the latest fleet reports of work set 0, one per seed
}

func (w *fleetHunt) prepare() error { return os.MkdirAll(w.tmp, 0o755) }

func (w *fleetHunt) sets() int { return w.opt.scale.huntSets }

func (w *fleetHunt) config(seed int64) fleet.Config {
	w.journal++
	return fleet.Config{
		Search:  registryHunt(seed, w.opt.scale.huntBudget, fleetWorkers),
		Workers: fleetWorkers,
		Journal: filepath.Join(w.tmp, fmt.Sprintf("j%d.jsonl", w.journal)),
	}
}

func (w *fleetHunt) rep(set int, g *gate, srv *probeServer) (*repOut, error) {
	var reports []*chaos.SearchReport
	var journals []string
	var searchErr error
	c, err := measure(srv, func(lap func()) {
		for _, seed := range seedsOfSet(w.opt, set) {
			cfg := w.config(seed)
			rep, err := fleet.Search(cfg)
			if err != nil {
				searchErr = err
				return
			}
			reports = append(reports, rep)
			journals = append(journals, cfg.Journal)
			lap()
		}
	})
	if err == nil {
		err = searchErr
	}
	if err != nil {
		return nil, err
	}
	if set == 0 {
		w.set0 = reports
	}
	runs := 0
	var journalBytes int64
	var sig bytes.Buffer
	for i, rep := range reports {
		r, _ := searchRuns(rep)
		runs += r
		b, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		sig.Write(b)
		if fi, err := os.Stat(journals[i]); err == nil {
			journalBytes += fi.Size()
		}
		os.Remove(journals[i])
	}
	return &repOut{cost: c, runs: runs, hash: hashOf(sig.Bytes()), phase: map[string]float64{
		"fleet.journal_bytes_per_run": float64(journalBytes) / float64(runs),
	}}, nil
}

// verify checks the fleet reports byte for byte against chaos.Search.
func (w *fleetHunt) verify(g *gate) error {
	for i, seed := range seedsOfSet(w.opt, 0) {
		want, err := json.Marshal(chaos.Search(registryHunt(seed, w.opt.scale.huntBudget, fleetWorkers)))
		if err != nil {
			return err
		}
		got, err := json.Marshal(w.set0[i])
		if err != nil {
			return err
		}
		g.check(bytes.Equal(want, got), "fleet report for seed %d differs from chaos.Search", seed)
	}
	return nil
}

// traced runs the rep with a frame-counting relay between the coordinator
// and each worker.
func (w *fleetHunt) traced(tr *tracer, g *gate) (map[string]float64, error) {
	rep := tr.begin("rep", -1, -1)
	var frames []relayFrame
	var runs, reissues, localRuns int
	for i, seed := range seedsOfSet(w.opt, 0) {
		cfg := w.config(seed)
		coord, err := fleet.NewCoordinator(cfg)
		if err != nil {
			return nil, err
		}
		rl, err := newRelay(coord.Addr(), tr.t0, i<<16) // connection ids unique across the seeds' relays
		if err != nil {
			coord.Close()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for n := 0; n < fleetWorkers; n++ {
			wk := &fleet.Worker{Join: rl.addr(), Name: fmt.Sprintf("relayed-%d", n)}
			wg.Add(1)
			go func() {
				defer wg.Done()
				wk.Run(ctx) // returns on Done or cancel; the report check below catches a lost worker
			}()
		}
		search := tr.begin("fleet.search", rep, -1)
		got, err := coord.Run()
		tr.end(search)
		cancel()
		wg.Wait()
		rs, lr := coord.Stats()
		if cerr := coord.Close(); err == nil {
			err = cerr
		}
		frames = append(frames, rl.close()...)
		os.Remove(cfg.Journal)
		if err != nil {
			return nil, err
		}
		reissues += rs
		localRuns += lr
		r, _ := searchRuns(got)
		runs += r
		a, err := json.Marshal(got)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(w.set0[i])
		if err != nil {
			return nil, err
		}
		g.check(bytes.Equal(a, b), "relayed fleet report for seed %d differs from the direct one", seed)
	}
	tr.end(rep)
	out := fleetLayers(tr, rep, frames, runs, reissues, localRuns)
	if err := w.versusInProcess(out); err != nil {
		return nil, err
	}
	return out, nil
}

// versusInProcess times the direct (unrelayed) fleet search against
// in-process chaos.Search{Workers: 2} on the same configs, alternating the
// two sides seed by seed so that both see the same machine, and reports the
// median of each side's rate and of their ratio.
func (w *fleetHunt) versusInProcess(out map[string]float64) error {
	var inproc, ratio []float64
	for range w.opt.scale.reps {
		var fleetWall, inprocWall time.Duration
		for _, seed := range seedsOfSet(w.opt, 0) {
			cfg := w.config(seed)
			t0 := time.Now()
			_, err := fleet.Search(cfg)
			fleetWall += time.Since(t0)
			os.Remove(cfg.Journal)
			if err != nil {
				return err
			}
			t1 := time.Now()
			chaos.Search(cfg.Search)
			inprocWall += time.Since(t1)
		}
		// Both sides execute the same schedules (verify gates the reports'
		// byte identity), so the ratio of rates is the inverse ratio of walls.
		runs := 0
		for _, rep := range w.set0 {
			r, _ := searchRuns(rep)
			runs += r
		}
		inproc = append(inproc, float64(runs)/inprocWall.Seconds())
		ratio = append(ratio, inprocWall.Seconds()/fleetWall.Seconds())
	}
	out["fleet.inproc_runs_per_s"] = summarize("", inproc).Value
	out["fleet.vs_inproc_ratio"] = summarize("", ratio).Value
	return nil
}

func (w *fleetHunt) close() { os.RemoveAll(w.tmp) }

// relayFrame is one protocol frame the relay forwarded.
type relayFrame struct {
	conn int
	at   int64 // ns since trace start, when the frame had been forwarded
	raw  []byte
}

// relay sits between fleet workers and the coordinator, forwarding the
// length-prefixed frames unchanged while recording each one.
type relay struct {
	ln     net.Listener
	target string
	t0     time.Time

	mu     sync.Mutex
	frames []relayFrame
	conns  []net.Conn
	wg     sync.WaitGroup
}

func newRelay(target string, t0 time.Time, firstConn int) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, t0: t0}
	r.wg.Add(1)
	go r.accept(firstConn)
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept(firstConn int) {
	defer r.wg.Done()
	for id := firstConn; ; id++ {
		down, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, down, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pump(id, up, down)
		go r.pump(id, down, up)
	}
}

// pump forwards frames from src to dst until either side closes.
func (r *relay) pump(id int, dst, src net.Conn) {
	defer r.wg.Done()
	defer dst.Close()
	for {
		var hdr [5]byte // [type:1][length:4 big-endian]
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		raw := make([]byte, 5+binary.BigEndian.Uint32(hdr[1:]))
		copy(raw, hdr[:])
		if _, err := io.ReadFull(src, raw[5:]); err != nil {
			return
		}
		if _, err := dst.Write(raw); err != nil {
			return
		}
		at := int64(time.Since(r.t0))
		r.mu.Lock()
		r.frames = append(r.frames, relayFrame{conn: id, at: at, raw: raw})
		r.mu.Unlock()
	}
}

// close stops the relay, waits for every pump to end, and returns the
// frames in forwarding order.
func (r *relay) close() []relayFrame {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return r.frames
}

// fleetLayers derives the fleet layer's metrics from the captured frames:
// one span per lease (Lease forwarded → Result forwarded), the coordinator's
// turnaround between a Result and the next Lease on the same connection, and
// the cost of EncodeFrame/DecodeFrame on the very frames that crossed.
func fleetLayers(tr *tracer, parent int, frames []relayFrame, runs, reissues, localRuns int) map[string]float64 {
	type connState struct{ leaseAt, resultAt int64 }
	conns := map[int]*connState{}
	var leases, cands, wire, rtt, turnaround, encNs, decNs int64
	for _, f := range frames {
		wire += int64(len(f.raw))
		t0 := time.Now()
		fr, err := fleet.DecodeFrame(f.raw)
		decNs += int64(time.Since(t0))
		if err != nil {
			continue
		}
		t1 := time.Now()
		fleet.EncodeFrame(fr) // timing only: the frame already crossed the wire
		encNs += int64(time.Since(t1))

		cs := conns[f.conn]
		if cs == nil {
			cs = &connState{}
			conns[f.conn] = cs
		}
		switch fr.Type {
		case fleet.FrameLease:
			leases++
			cands += int64(len(fr.Lease.Candidates))
			if cs.resultAt > 0 {
				turnaround += f.at - cs.resultAt
			}
			cs.leaseAt = f.at
		case fleet.FrameResult:
			if cs.leaseAt > 0 {
				rtt += f.at - cs.leaseAt
				tr.spans = append(tr.spans, span{Name: "fleet.lease", Start: cs.leaseAt, End: f.at,
					Parent: parent, Run: int(fr.Result.LeaseID)})
			}
			cs.resultAt = f.at
		case fleet.FrameHello, fleet.FrameDone:
			// Counted above as frames and wire bytes; they open and close a
			// session and carry no lease timing.
		}
	}
	n := float64(len(frames))
	return map[string]float64{
		"fleet.frames_per_lease":    per(n, float64(leases)),
		"fleet.cands_per_lease":     per(float64(cands), float64(leases)),
		"fleet.wire_bytes_per_run":  per(float64(wire), float64(runs)),
		"fleet.lease_rtt_us":        per(float64(rtt), float64(leases)) / 1e3,
		"fleet.turnaround_us":       per(float64(turnaround), float64(leases)) / 1e3,
		"fleet.worker_idle_share":   per(float64(turnaround), float64(turnaround+rtt)),
		"fleet.encode_ns_per_frame": per(float64(encNs), n),
		"fleet.decode_ns_per_frame": per(float64(decNs), n),
		"fleet.reissues":            float64(reissues),
		"fleet.local_runs":          float64(localRuns),
	}
}
