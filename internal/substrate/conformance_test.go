package substrate_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/investigate"
	"repro/internal/scroll"
	"repro/internal/substrate"
)

// The conformance workload: a producer emits n uniquely-identified jobs on
// a timer cadence; a worker deduplicates, marks each job in its heap, and
// acknowledges. The invariant — every acked job was seen by the worker —
// is robust to arbitrary message loss, duplication, delay and partition,
// so it must hold on BOTH substrates under every benign chaos schedule.

type workerState struct {
	Seen  map[string]bool
	Count int
}

type confWorker struct{ st workerState }

func (w *confWorker) State() any { return &w.st }
func (w *confWorker) Init(ctx dsim.Context) {
	w.st.Seen = map[string]bool{}
}
func (w *confWorker) OnMessage(ctx dsim.Context, from string, payload []byte) {
	job := string(payload)
	if !w.st.Seen[job] {
		w.st.Seen[job] = true
		ctx.Heap().WriteUint64(w.st.Count*8, uint64(len(job)))
		w.st.Count++
	}
	ctx.Send(from, payload) // idempotent ack
}
func (w *confWorker) OnTimer(dsim.Context, string)               {}
func (w *confWorker) OnRollback(dsim.Context, dsim.RollbackInfo) {}

type producerState struct {
	Sent  int
	Acked map[string]bool
}

type confProducer struct {
	st    producerState
	n     int
	every uint64
}

func (p *confProducer) State() any { return &p.st }
func (p *confProducer) Init(ctx dsim.Context) {
	p.st.Acked = map[string]bool{}
	ctx.SetTimer("emit", p.every)
}
func (p *confProducer) OnMessage(ctx dsim.Context, from string, payload []byte) {
	p.st.Acked[string(payload)] = true
}
func (p *confProducer) OnTimer(ctx dsim.Context, name string) {
	if name != "emit" || p.st.Sent >= p.n {
		return
	}
	ctx.Send("worker", []byte(fmt.Sprintf("job-%d", p.st.Sent)))
	p.st.Sent++
	if p.st.Sent < p.n {
		ctx.SetTimer("emit", p.every)
	}
}
func (p *confProducer) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// ackedSubsetOfSeen is the cross-substrate safety property.
func ackedSubsetOfSeen() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "acked ⊆ seen",
		Holds: func(states *fault.States) bool {
			// Raw is the JSON-native way in: it reads the same on the live
			// substrate (serialized state only) and on the simulator.
			var w workerState
			var p producerState
			if states.Has("worker") && json.Unmarshal(states.Raw("worker"), &w) != nil {
				return false
			}
			if states.Has("producer") && json.Unmarshal(states.Raw("producer"), &p) != nil {
				return false
			}
			for job := range p.Acked {
				if !w.Seen[job] {
					return false
				}
			}
			return true
		},
	}
}

const confJobs = 12

// newConfSubstrate builds one backend with the conformance app loaded.
// Live runs with a 1ms tick; the producer emits every 3 ticks.
func newConfSubstrate(t *testing.T, backend string) substrate.Substrate {
	t.Helper()
	var sub substrate.Substrate
	switch backend {
	case "sim":
		sub = substrate.NewSim(dsim.Config{Seed: 7, MinLatency: 1, MaxLatency: 4,
			InitCheckpoint: true, CheckpointEvery: 4, MaxSteps: 100_000})
	case "live", "live-tcp":
		live, err := substrate.NewLive(substrate.LiveConfig{Seed: 7, UseTCP: backend == "live-tcp",
			InitCheckpoint: true, CheckpointEvery: 4})
		if err != nil {
			t.Skipf("live substrate unavailable: %v", err)
		}
		sub = live
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	t.Cleanup(func() { sub.Close() })
	sub.AddProcess("worker", &confWorker{})
	sub.AddProcess("producer", &confProducer{n: confJobs, every: 3})
	return sub
}

// wide is a window covering the whole run on either backend.
var wide = chaos.Window{From: 0, To: 1 << 30}

// TestConformance runs the identical chaos.Schedule value on every
// backend and asserts the shared contract: the loss-robust invariant
// holds, the schedule visibly perturbs the network, and the scroll stays
// structurally sound (every recv references a recorded send).
func TestConformance(t *testing.T) {
	cases := []struct {
		name  string
		sched chaos.Schedule
		check func(t *testing.T, sub substrate.Substrate, stats dsim.Stats)
	}{
		{
			name:  "baseline",
			sched: nil,
			check: func(t *testing.T, sub substrate.Substrate, stats dsim.Stats) {
				var p producerState
				json.Unmarshal(sub.MachineState("producer"), &p)
				if len(p.Acked) != confJobs {
					t.Errorf("acked %d/%d jobs without chaos", len(p.Acked), confJobs)
				}
			},
		},
		{
			name: "drop-all",
			sched: chaos.Schedule{{Kind: fault.Drop, Window: wide,
				Intensity: chaos.Intensity{Prob: 1.0}}},
			check: func(t *testing.T, sub substrate.Substrate, stats dsim.Stats) {
				if stats.Dropped == 0 {
					t.Error("p=1.0 drop schedule dropped nothing")
				}
				var p producerState
				json.Unmarshal(sub.MachineState("producer"), &p)
				if len(p.Acked) != 0 {
					t.Errorf("%d acks crossed a p=1.0 drop rule", len(p.Acked))
				}
			},
		},
		{
			name: "duplicate-all",
			sched: chaos.Schedule{{Kind: fault.Duplicate, Window: wide,
				Intensity: chaos.Intensity{Prob: 1.0}}},
			check: func(t *testing.T, sub substrate.Substrate, stats dsim.Stats) {
				if stats.Duplicated == 0 {
					t.Error("p=1.0 dup schedule duplicated nothing")
				}
				var w workerState
				json.Unmarshal(sub.MachineState("worker"), &w)
				if w.Count != confJobs {
					t.Errorf("worker deduplicated to %d jobs, want %d", w.Count, confJobs)
				}
			},
		},
		{
			name: "delay-jitter",
			sched: chaos.Schedule{{Kind: fault.Reorder, Window: wide,
				Intensity: chaos.Intensity{Extra: 2, Jitter: 6}}},
			check: func(t *testing.T, sub substrate.Substrate, stats dsim.Stats) {
				var p producerState
				json.Unmarshal(sub.MachineState("producer"), &p)
				if len(p.Acked) != confJobs {
					t.Errorf("acked %d/%d under pure delay", len(p.Acked), confJobs)
				}
			},
		},
		{
			name: "partition-worker",
			sched: chaos.Schedule{{Kind: fault.Partition, Targets: []int{1}, // "worker" sorts after "producer"
				Window: wide}},
			check: func(t *testing.T, sub substrate.Substrate, stats dsim.Stats) {
				var p producerState
				json.Unmarshal(sub.MachineState("producer"), &p)
				if len(p.Acked) != 0 {
					t.Errorf("%d acks crossed the partition", len(p.Acked))
				}
			},
		},
	}
	for _, backend := range []string{"sim", "live", "live-tcp"} {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				sub := newConfSubstrate(t, backend)

				// The identical schedule value compiles through the same
				// path on every backend.
				tc.sched.Compile(sub.Procs()).Apply(sub)

				stats := sub.Run()
				if bad := fault.NewMonitor(ackedSubsetOfSeen()).Check(sub); len(bad) != 0 {
					t.Errorf("invariant violated: %v", bad)
				}
				checkScrollSound(t, sub)
				tc.check(t, sub, stats)
			})
		}
	}
}

// checkScrollSound verifies the cross-backend scroll contract: merged
// records are Lamport-ordered and every receive references a send that was
// recorded by some process.
func checkScrollSound(t *testing.T, sub substrate.Substrate) {
	t.Helper()
	recs := sub.MergedScroll()
	if len(recs) == 0 {
		t.Fatal("empty merged scroll")
	}
	sent := map[string]bool{}
	for _, r := range recs {
		if r.Kind == scroll.KindSend {
			sent[r.MsgID] = true
		}
	}
	last := uint64(0)
	for _, r := range recs {
		if r.Lamport < last {
			t.Fatal("merged scroll out of Lamport order")
		}
		last = r.Lamport
		if r.Kind == scroll.KindRecv && !sent[r.MsgID] {
			t.Fatalf("recv of %q has no recorded send", r.MsgID)
		}
	}
}

// TestLiveInjectionAudit: the hub tap records exactly which messages the
// schedule intervened on.
func TestLiveInjectionAudit(t *testing.T) {
	sub := newConfSubstrate(t, "live")
	sched := chaos.Schedule{{Kind: fault.Drop, Window: wide,
		Intensity: chaos.Intensity{Prob: 1.0}}}
	sched.Compile(sub.Procs()).Apply(sub)
	sub.Run()
	audit := sub.(*substrate.LiveSubstrate).InjectionAudit()
	if len(audit) == 0 {
		t.Fatal("p=1.0 drop left no audit trail")
	}
	for _, line := range audit {
		if line[:4] != "drop" {
			t.Fatalf("unexpected audit entry %q", line)
		}
	}
}

// TestLiveCrashRestart exercises the process-level injections the hub
// cannot host: the worker crashes mid-run and restarts from its latest
// checkpoint; jobs sent while it is down are lost, the invariant holds.
func TestLiveCrashRestart(t *testing.T) {
	sub := newConfSubstrate(t, "live")
	sched := chaos.Schedule{{Kind: fault.Crash, Targets: []int{1},
		Window: chaos.Window{From: 8, To: 22}}}
	sched.Compile(sub.Procs()).Apply(sub)
	stats := sub.Run()
	if stats.Crashes != 1 || stats.Restarts != 1 {
		t.Errorf("crashes=%d restarts=%d, want 1/1", stats.Crashes, stats.Restarts)
	}
	if bad := fault.NewMonitor(ackedSubsetOfSeen()).Check(sub); len(bad) != 0 {
		t.Errorf("invariant violated after crash-restart: %v", bad)
	}
}

// durWorker deduplicates jobs like confWorker but tracks its high-water
// job count in stable storage, recovering it after a crash restart — the
// crash-unsafe-counter pattern the 2PC coordinator and KV primary use.
type durWorker struct {
	st struct{ Count uint64 }
}

func (w *durWorker) State() any        { return &w.st }
func (w *durWorker) Init(dsim.Context) {}
func (w *durWorker) OnMessage(ctx dsim.Context, from string, payload []byte) {
	n := w.st.Count
	if v, ok := ctx.DurableGet("count"); ok && len(v) == 8 {
		if d := binary.LittleEndian.Uint64(v); d > n {
			n = d
		}
	}
	n++
	ctx.DurablePut("count", binary.LittleEndian.AppendUint64(nil, n))
	w.st.Count = n
	ctx.Send(from, payload)
}
func (w *durWorker) OnTimer(dsim.Context, string) {}
func (w *durWorker) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	if !info.CrashRestart {
		return
	}
	if v, ok := ctx.DurableGet("count"); ok && len(v) == 8 {
		w.st.Count = binary.LittleEndian.Uint64(v)
	}
}

// TestConformanceStableStorage: the Context.Durable… seam behaves
// identically on every backend — the capability row is set, cells survive
// a crash-restart that visibly rewinds machine state, and the final
// DurableSnapshot agrees with the machine's recovered state.
func TestConformanceStableStorage(t *testing.T) {
	for _, backend := range []string{"sim", "live", "live-tcp"} {
		t.Run(backend, func(t *testing.T) {
			var sub substrate.Substrate
			switch backend {
			case "sim":
				sub = substrate.NewSim(dsim.Config{Seed: 7, MinLatency: 1, MaxLatency: 4,
					InitCheckpoint: true, CheckpointEvery: 4, MaxSteps: 100_000})
			default:
				live, err := substrate.NewLive(substrate.LiveConfig{Seed: 7, UseTCP: backend == "live-tcp",
					InitCheckpoint: true, CheckpointEvery: 4})
				if err != nil {
					t.Skipf("live substrate unavailable: %v", err)
				}
				sub = live
			}
			t.Cleanup(func() { sub.Close() })
			if !sub.Capabilities().StableStorage {
				t.Fatalf("%s backend does not advertise StableStorage", backend)
			}
			sub.AddProcess("worker", &durWorker{})
			sub.AddProcess("producer", &confProducer{n: confJobs, every: 3})
			sched := chaos.Schedule{{Kind: fault.Crash, Targets: []int{1}, // worker sorts after producer
				Window: chaos.Window{From: 8, To: 22}}}
			sched.Compile(sub.Procs()).Apply(sub)
			stats := sub.Run()
			if stats.Crashes != 1 || stats.Restarts != 1 {
				t.Fatalf("crashes=%d restarts=%d, want 1/1", stats.Crashes, stats.Restarts)
			}
			snap := sub.DurableSnapshot()
			cell := snap["worker"]["count"]
			if len(cell) != 8 {
				t.Fatalf("durable snapshot missing worker count: %v", snap)
			}
			durable := binary.LittleEndian.Uint64(cell)
			var w struct{ Count uint64 }
			if err := json.Unmarshal(sub.MachineState("worker"), &w); err != nil {
				t.Fatal(err)
			}
			if durable != w.Count {
				t.Fatalf("durable count %d != recovered state count %d", durable, w.Count)
			}
			if durable == 0 {
				t.Fatal("worker made no durable progress")
			}
		})
	}
}

// TestConformanceRollbackAllOrNothing: RollbackTo applies a recovery line
// whole or not at all. A line with one bad entry — a checkpoint the store
// does not hold, one that belongs to another process, or one (Put through
// the exposed Store) of a process the substrate does not run — is refused
// before the epoch moves or any process is restored, however many good
// entries sort before the bad one.
func TestConformanceRollbackAllOrNothing(t *testing.T) {
	for _, backend := range []string{"sim", "live"} {
		t.Run(backend, func(t *testing.T) {
			sub := newConfSubstrate(t, backend)
			sub.Run()
			store := sub.Store()
			first := func(proc string) string { return store.List(proc)[0].ID }
			ghost := store.Put(&checkpoint.Checkpoint{Proc: "zz-ghost", Extra: []byte("{}")})
			epoch := func() uint64 { return sub.(interface{ Epoch() uint64 }).Epoch() }
			type observed struct {
				epoch   uint64
				scrolls map[string]int
				states  map[string]string
				ckpts   int
			}
			observe := func() observed {
				o := observed{epoch: epoch(), scrolls: map[string]int{}, states: map[string]string{}, ckpts: store.Len()}
				for _, id := range sub.Procs() {
					o.scrolls[id] = sub.Scroll(id).Len()
					o.states[id] = string(sub.MachineState(id))
				}
				return o
			}
			before := observe()
			for name, line := range map[string]map[string]string{
				"unknown process":    {"producer": first("producer"), "worker": first("worker"), "zz-ghost": ghost},
				"unknown checkpoint": {"producer": first("producer"), "worker": "ckpt-worker-9999"},
				"another process's":  {"producer": first("producer"), "worker": first("producer")},
			} {
				if err := sub.RollbackTo(line); err == nil {
					t.Errorf("%s: RollbackTo accepted the line", name)
				}
				if after := observe(); !reflect.DeepEqual(after, before) {
					t.Errorf("%s: a refused rollback changed the substrate:\n before %+v\n after  %+v", name, before, after)
				}
			}
			// The same good entries on their own do apply.
			if err := sub.RollbackTo(map[string]string{"producer": first("producer"), "worker": first("worker")}); err != nil {
				t.Fatal(err)
			}
			if after := observe(); after.epoch != before.epoch+1 || after.scrolls["worker"] >= before.scrolls["worker"] {
				t.Errorf("the good line did not roll back: before %+v, after %+v", before, after)
			}
		})
	}
}

// TestLiveDurableWALRecovery: with LiveConfig.DurableDir set, stable
// storage survives the substrate itself — a second substrate opened on the
// same directory recovers the cells through the write-ahead log.
func TestLiveDurableWALRecovery(t *testing.T) {
	dir := t.TempDir()
	live, err := substrate.NewLive(substrate.LiveConfig{Seed: 7, DurableDir: dir,
		InitCheckpoint: true, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	live.AddProcess("worker", &durWorker{})
	live.AddProcess("producer", &confProducer{n: confJobs, every: 3})
	live.Run()
	before := live.DurableSnapshot()
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	cell := before["worker"]["count"]
	if len(cell) != 8 || binary.LittleEndian.Uint64(cell) == 0 {
		t.Fatalf("first run wrote no durable count: %v", before)
	}

	reborn, err := substrate.NewLive(substrate.LiveConfig{Seed: 8, DurableDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	reborn.AddProcess("worker", &durWorker{})
	after := reborn.DurableSnapshot()
	if got := after["worker"]["count"]; string(got) != string(cell) {
		t.Fatalf("recovered cell %v != written cell %v", got, cell)
	}
}

// TestLiveScrollDirPersistence: with LiveConfig.ScrollDir set, each
// process records onto a segmented durable scroll, so a second substrate
// opened on the same directory starts with the first run's recording
// already loaded — the Scroll survives real process crashes, not just
// in-substrate restarts.
func TestLiveScrollDirPersistence(t *testing.T) {
	dir := t.TempDir()
	live, err := substrate.NewLive(substrate.LiveConfig{Seed: 7, ScrollDir: dir,
		InitCheckpoint: true, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	live.AddProcess("worker", &confWorker{})
	live.AddProcess("producer", &confProducer{n: confJobs, every: 3})
	live.Run()
	recs := live.Scroll("worker").Records()
	if len(recs) == 0 {
		t.Fatal("first run recorded nothing for worker")
	}
	digest := scroll.Digest(recs)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	reborn, err := substrate.NewLive(substrate.LiveConfig{Seed: 8, ScrollDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	reborn.AddProcess("worker", &confWorker{})
	got := reborn.Scroll("worker").Records()
	if len(got) != len(recs) || scroll.Digest(got) != digest {
		t.Fatalf("reborn worker scroll has %d records (digest %s), want %d (digest %s)",
			len(got), scroll.Digest(got), len(recs), digest)
	}
}

// TestLiveClockSkew verifies Context.Now observations shift inside the
// injected window.
func TestLiveClockSkew(t *testing.T) {
	live, err := substrate.NewLive(substrate.LiveConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	probe := &nowProbe{}
	live.AddProcess("probe", probe)
	live.Inject(fault.Injection{Kind: fault.ClockSkew, Proc: "probe", At: 0, Until: 1 << 30, Skew: 500_000})
	live.Run()
	probeState := struct{ Samples []uint64 }{}
	json.Unmarshal(live.MachineState("probe"), &probeState)
	if len(probeState.Samples) == 0 {
		t.Fatal("probe sampled nothing")
	}
	for _, s := range probeState.Samples {
		if s < 500_000 {
			t.Fatalf("sample %d escaped a +500000 skew", s)
		}
	}
}

// nowProbe samples Context.Now a few times on a timer.
type nowProbe struct {
	st struct{ Samples []uint64 }
}

func (p *nowProbe) State() any                             { return &p.st }
func (p *nowProbe) Init(ctx dsim.Context)                  { ctx.SetTimer("sample", 2) }
func (p *nowProbe) OnMessage(dsim.Context, string, []byte) {}
func (p *nowProbe) OnTimer(ctx dsim.Context, name string) {
	p.st.Samples = append(p.st.Samples, ctx.Now())
	if len(p.st.Samples) < 4 {
		ctx.SetTimer("sample", 2)
	}
}
func (p *nowProbe) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// TestLiveProcessReplay closes the loop on the live Scroll: a process
// recorded on the live substrate replays offline through the simulator's
// replay runner without divergence, and a tampered implementation is
// caught — the paper's record/replay capability on real goroutines.
func TestLiveProcessReplay(t *testing.T) {
	sub := newConfSubstrate(t, "live")
	sub.Run()
	recs := sub.Scroll("worker").Records()

	rep, err := dsim.Replay("worker", &confWorker{}, recs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatalf("faithful replay diverged at %d", rep.DivergeAt)
	}
	if rep.Events == 0 {
		t.Fatal("replay consumed no events")
	}

	villain := &tamperedWorker{}
	rep2, err := dsim.Replay("worker", villain, recs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Diverged {
		t.Fatal("tampered replay did not diverge")
	}
}

// tamperedWorker acknowledges with a corrupted payload.
type tamperedWorker struct{ confWorker }

func (w *tamperedWorker) OnMessage(ctx dsim.Context, from string, payload []byte) {
	ctx.Send(from, []byte("tampered"))
}

// TestLiveFaultResponse drives the full coordinator pipeline on the live
// substrate: a local fault pauses the run, the response carries an
// investigation, and Resume continues.
func TestLiveFaultResponse(t *testing.T) {
	live, err := substrate.NewLive(substrate.LiveConfig{Seed: 1, CheckpointEvery: 2, InitCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	live.AddProcess("worker", &faultyWorker{})
	live.AddProcess("producer", &confProducer{n: 6, every: 3})

	handled := make(chan dsim.FaultRecord, 1)
	live.SetFaultHandler(func(f dsim.FaultRecord) bool {
		select {
		case handled <- f:
		default:
		}
		return true
	})
	live.Run()
	select {
	case f := <-handled:
		if f.Proc != "worker" {
			t.Errorf("fault from %q, want worker", f.Proc)
		}
	default:
		t.Fatal("fault never reached the handler")
	}
	if len(live.Faults()) == 0 {
		t.Error("no fault recorded")
	}
	live.Resume()
}

// faultyWorker reports a local fault on the third delivery.
type faultyWorker struct {
	st struct{ N int }
}

func (w *faultyWorker) State() any        { return &w.st }
func (w *faultyWorker) Init(dsim.Context) {}
func (w *faultyWorker) OnMessage(ctx dsim.Context, from string, payload []byte) {
	w.st.N++
	if w.st.N == 3 {
		ctx.Fault("worker: third delivery poisoned")
	}
	ctx.Send(from, payload)
}
func (w *faultyWorker) OnTimer(dsim.Context, string)               {}
func (w *faultyWorker) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// The no-retain contract (dsim.Context.Send, DurablePut): a machine may
// render every message into one buffer it owns. reuser does, and scribbles
// over the buffer the moment each call returns; sink keeps what it is
// delivered. Any Context that held on to its argument instead of copying
// it would record, deliver or store the scribble.

type reuserState struct{ ReadBack string }

type reuser struct {
	st  reuserState
	buf [16]byte
}

func (r *reuser) State() any { return &r.st }
func (r *reuser) Init(ctx dsim.Context) {
	for _, msg := range []string{"first", "second"} {
		p := append(r.buf[:0], msg...)
		ctx.Send("sink", p)
		scribble(p)
	}
	p := append(r.buf[:0], "stored"...)
	ctx.DurablePut("cell", p)
	scribble(p)
	v, _ := ctx.DurableGet("cell")
	r.st.ReadBack = string(v)
}
func (r *reuser) OnMessage(dsim.Context, string, []byte)     {}
func (r *reuser) OnTimer(dsim.Context, string)               {}
func (r *reuser) OnRollback(dsim.Context, dsim.RollbackInfo) {}

func scribble(p []byte) {
	for i := range p {
		p[i] = 'X'
	}
}

type sinkState struct{ Got []string }

type sink struct{ st sinkState }

func (s *sink) State() any        { return &s.st }
func (s *sink) Init(dsim.Context) {}
func (s *sink) OnMessage(ctx dsim.Context, from string, payload []byte) {
	s.st.Got = append(s.st.Got, string(payload)) // borrowed for the call: keep a copy
	sort.Strings(s.st.Got)
}
func (s *sink) OnTimer(dsim.Context, string)               {}
func (s *sink) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// intact reports whether the reuser's and sink's serialized states hold
// only bytes the reuser rendered, and whether all of them have arrived.
func intact(reuserJSON, sinkJSON []byte) (clean, complete bool) {
	var r reuserState
	var s sinkState
	if (reuserJSON != nil && json.Unmarshal(reuserJSON, &r) != nil) || (sinkJSON != nil && json.Unmarshal(sinkJSON, &s) != nil) {
		return false, false
	}
	clean = r.ReadBack == "" || r.ReadBack == "stored"
	for _, got := range s.Got {
		clean = clean && (got == "first" || got == "second")
	}
	return clean, r.ReadBack == "stored" && fmt.Sprint(s.Got) == "[first second]"
}

func TestContextDoesNotRetain(t *testing.T) {
	var recorded []scroll.Record // the simulator's recording of the reuser, for the replay case
	for _, backend := range []string{"sim", "live", "live-tcp"} {
		t.Run(backend, func(t *testing.T) {
			var sub substrate.Substrate
			if backend == "sim" {
				sub = substrate.NewSim(dsim.Config{Seed: 7, MinLatency: 1, MaxLatency: 4, MaxSteps: 1000})
			} else {
				live, err := substrate.NewLive(substrate.LiveConfig{Seed: 7, UseTCP: backend == "live-tcp"})
				if err != nil {
					t.Skipf("live substrate unavailable: %v", err)
				}
				sub = live
			}
			t.Cleanup(func() { sub.Close() })
			sub.AddProcess("reuser", &reuser{})
			sub.AddProcess("sink", &sink{})
			sub.Run()
			if clean, complete := intact(sub.MachineState("reuser"), sub.MachineState("sink")); !clean || !complete {
				t.Errorf("delivered or read back: reuser %s, sink %s", sub.MachineState("reuser"), sub.MachineState("sink"))
			}
			var rec []string
			for r := range sub.Scroll("reuser").All() {
				if r.Kind == scroll.KindSend || (r.Kind == scroll.KindEnv && r.MsgID == dsim.DurablePutMsgID) {
					rec = append(rec, string(r.Payload))
				}
			}
			if fmt.Sprint(rec) != "[first second stored]" {
				t.Errorf("recorded %q", rec)
			}
			if cell := sub.DurableSnapshot()["reuser"]["cell"]; string(cell) != "stored" {
				t.Errorf("stored %q", cell)
			}
			if backend == "sim" {
				recorded = sub.Scroll("reuser").Records()
			}
		})
	}
	t.Run("replay", func(t *testing.T) {
		if recorded == nil {
			t.Skip("no simulator recording")
		}
		m := &reuser{}
		res, err := dsim.Replay("reuser", m, recorded, 0, 0)
		if err != nil || res.Diverged || res.Sends != 2 || m.st.ReadBack != "stored" {
			t.Errorf("replay of the reuser: %+v, err %v, read back %q", res, err, m.st.ReadBack)
		}
	})
	t.Run("sandbox", func(t *testing.T) {
		reached := false
		rep, err := investigate.Run([]investigate.ProcModel{
			{Proc: "reuser", New: func() dsim.Machine { return &reuser{} }},
			{Proc: "sink", New: func() dsim.Machine { return &sink{} }},
		}, nil, nil, investigate.Config{Invariants: []fault.GlobalInvariant{{
			Name: "only rendered bytes",
			Holds: func(states *fault.States) bool {
				clean, complete := intact(states.Raw("reuser"), states.Raw("sink"))
				reached = reached || complete
				return clean
			},
		}}})
		if err != nil || rep.Violating() || !reached {
			t.Errorf("sandbox exploration: %+v, err %v, both deliveries reached: %v", rep, err, reached)
		}
	})
}
