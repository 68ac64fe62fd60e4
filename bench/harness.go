package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric is one reported number: the median of n samples, their range, and
// the samples themselves in the order they were taken (rep order), which
// -compare pairs up between two runs of the same seed.
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(unit string, vals []float64) Metric {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return Metric{Value: med, Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s), Samples: vals}
}

// Env stamps a result document with what it was measured on.
type Env struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func envStamp(opt options) Env {
	e := Env{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown", GitCommit: "unknown",
		Seed: opt.seed, Scale: opt.scaleName, Reps: opt.scale.reps, Seconds: opt.seconds, Trace: opt.trace,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the stamp then stays
	// "unknown" rather than failing the run.
	if out, err := exec.Command("git", "-C", opt.root, "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	return e
}

// Document is one invocation's full result: -out writes it, -compare reads it.
type Document struct {
	Env       Env               `json:"env"`
	Workloads []*WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's outcome. Metrics are the end-to-end
// metrics (always measured with tracing off); Layers are the per-layer
// metrics of the traced rep and are present only with -trace 1.
type WorkloadResult struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	RepHash   string   `json:"rep_hash"`
	// RawWallS is the timed-rep wall time as the clock read it; Slowdown is
	// the probe-measured factor every reported time was divided by.
	RawWallS Metric            `json:"raw_wall_s"`
	Slowdown Metric            `json:"machine_slowdown"`
	Metrics  map[string]Metric `json:"metrics"`
	Layers   map[string]Metric `json:"layers,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
}

func (r *WorkloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %d/%d operations correct, rep hash %.12s\n", r.Name, r.Attempted-r.Failed, r.Attempted, r.RepHash)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	table := func(ms map[string]Metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Fprintf(w, "   %-36s %16.6g %-6s [min %.6g max %.6g n %d]\n", n, m.Value, m.Unit, m.Min, m.Max, m.N)
		}
	}
	table(r.Metrics)
	fmt.Fprintf(w, "   times are at reference speed: raw rep wall %.4g s ÷ machine slowdown %.4g [min %.4g max %.4g n %d]\n",
		r.RawWallS.Value, r.Slowdown.Value, r.Slowdown.Min, r.Slowdown.Max, r.Slowdown.N)
	table(r.Layers)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// contractLine renders the last line of standard output: the end-to-end
// metrics, or with tracing the per-layer ones. With several workloads in
// one invocation the names are prefixed by the workload.
func (d *Document) contractLine(trace bool) (string, bool) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, r := range d.Workloads {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		ms := r.Metrics
		if trace {
			ms = r.Layers
		}
		for n, m := range ms {
			if len(d.Workloads) > 1 {
				n = r.Name + "." + n
			}
			out.Metrics[n] = val{m.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b), out.Correct
}

// gate counts the operations whose output was checked and the ones that
// failed; it feeds correct/attempted/failed and the exit code.
type gate struct {
	attempted, failed int
	msgs              []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if ok {
		return
	}
	g.failed++
	if len(g.msgs) < 20 {
		g.msgs = append(g.msgs, fmt.Sprintf(format, args...))
	}
}

// cost is what the timed core of a rep spent.
type cost struct {
	wall    time.Duration   // the segments, without the probe pauses between them
	probes  []time.Duration // speed-probe readings taken between the segments
	mallocs uint64
	bytes   uint64
}

// pacer times the segments of one rep and runs the speed probe in the
// pauses between them.
type pacer struct {
	srv    *probeServer // nil on warm-up reps: time only
	cost   cost
	last   time.Time // start of the running segment
	probed time.Time // end of the latest probe
	err    error
}

// lap ends a segment. The workloads call it between their natural units of
// work (one application's sweep, one search, one replay).
func (p *pacer) lap() { p.pause(false) }

func (p *pacer) pause(force bool) {
	now := time.Now()
	p.cost.wall += now.Sub(p.last)
	if p.srv != nil && p.err == nil && (force || now.Sub(p.probed) >= probeEvery) {
		var d time.Duration
		if d, p.err = p.srv.sample(); p.err == nil {
			p.cost.probes = append(p.cost.probes, d)
		}
		p.probed = time.Now()
	}
	p.last = time.Now()
}

// measure times f, which marks its segment boundaries with lap, and takes
// its heap allocations from MemStats deltas; the probe runs in another
// process, so neither its time nor its allocations are f's.
func measure(srv *probeServer, f func(lap func())) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := &pacer{srv: srv, last: time.Now(), probed: time.Now()}
	f(p.lap)
	p.pause(len(p.cost.probes) == 0) // every rep carries at least one reading
	runtime.ReadMemStats(&m1)
	p.cost.mallocs, p.cost.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return p.cost, p.err
}

// slowdowns summarizes the factor by which the machine ran slower than
// reference speed while the readings were taken; its median is what reported
// times are divided by.
func slowdowns(probes []time.Duration) Metric {
	s := make([]float64, len(probes))
	for i, d := range probes {
		s[i] = d.Seconds() / probeRefSeconds
	}
	return summarize("", s)
}

func slowdown(probes []time.Duration) float64 { return slowdowns(probes).Value }

// repOut is one rep of a workload's fixed amount of work.
type repOut struct {
	cost  cost               // the timed core
	runs  int                // simulation executions inside the timed core
	hash  string             // SHA-256 over the rep's reports and digests
	phase map[string]float64 // per-rep phase measurements, keyed by per-layer metric name
}

// workload is one of the four closed-loop workloads. A value serves one
// set-up round: prepare builds its inputs from the seed, rep does one work
// set once.
type workload interface {
	prepare() error
	// sets is how many distinct, equally sized work sets the timed reps
	// cycle through: 1 where the per-run cost barely depends on the seed, more
	// on the hunts, where one run has to cover more seeds than one rep can.
	sets() int
	// rep does work set `set` once; srv, when set, is probed between its
	// segments.
	rep(set int, g *gate, srv *probeServer) (*repOut, error)
	// verify runs the one-off correctness gates that are too costly for
	// every rep (artifact replays, the Workers: 2 cross-check, ...) on the
	// outputs of work set 0.
	verify(g *gate) error
	// traced re-executes work set 0 through the public API with spans around
	// every layer call and returns the per-layer values.
	traced(tr *tracer, g *gate) (map[string]float64, error)
	close()
}

// setUp builds the workload's inputs and runs the untimed warm-up rep (work
// set 0), which fills the run arenas (sync.Pool) and the GFSR seed cache. It
// returns the warm-up's report hash; its gates are discarded, since the timed
// reps check the same things.
func setUp(name string, opt options, tmp string) (workload, string, error) {
	w := newWorkload(name, opt, tmp)
	if err := w.prepare(); err != nil {
		return nil, "", err
	}
	r, err := w.rep(0, &gate{}, nil)
	if err != nil {
		w.close()
		return nil, "", err
	}
	return w, r.hash, nil
}

// setupChildEnv marks a child process that only sets up and reports how
// long that took since its own process start.
const setupChildEnv = "FIXD_BENCH_SETUP_CHILD"

func setUpInChild(name string, opt options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(opt.seed, 10), "-scale", opt.scaleName)
	cmd.Env = append(os.Environ(), setupChildEnv+"=1")
	cmd.Dir = opt.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runSetupChild is the child's side of setUpInChild.
func runSetupChild(name string, opt options, stdout io.Writer) error {
	tmp := filepath.Join(opt.root, ".bench_build", "tmp", name+"-setup-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(tmp)
	w, _, err := setUp(name, opt, tmp)
	if err != nil {
		return err
	}
	defer w.close()
	_, err = fmt.Fprintln(stdout, time.Since(processStart).Seconds())
	return err
}

// runWorkload measures one workload. srv is the invocation's probe child,
// shared between its workloads and started here, after the first set-up, so
// that no set-up competes with it.
func runWorkload(name string, opt options, decl *declared, start time.Time, srv *probeServer) (*WorkloadResult, error) {
	tmp := filepath.Join(opt.root, ".bench_build", "tmp", name+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	g := &gate{}
	// Set-up is measured cold every time: this process's own set-up, plus
	// scale.setups-1 child processes that set up the same workload and exit.
	// Probe readings after the own set-up and around each child put the
	// times at reference speed.
	w, warmHash, err := setUp(name, opt, filepath.Join(tmp, "own"))
	if err != nil {
		return nil, err
	}
	defer w.close()
	own := time.Since(start).Seconds()
	if err := srv.start(opt.root); err != nil {
		return nil, err
	}
	// As many readings around every set-up as there are set-ups.
	readings := func() ([]time.Duration, error) {
		var out []time.Duration
		for range opt.scale.setups {
			d, err := srv.sample()
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	}
	before, err := readings()
	if err != nil {
		return nil, err
	}
	setups := []float64{own / slowdown(before)}
	for round := 1; round < opt.scale.setups; round++ {
		s, err := setUpInChild(name, opt)
		if err != nil {
			return nil, err
		}
		after, err := readings()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s/slowdown(append(before, after...)))
		before = after
	}

	// Timed reps cycle through the work sets, whole cycles only, so that the
	// work behind a run's medians does not depend on how fast the machine is.
	// A rep must reproduce the report hash of the previous rep of its work set
	// (of the warm-up, for set 0).
	var reps []*repOut
	var probes []time.Duration
	phase := map[string][]float64{}
	hashes := map[int]string{0: warmHash}
	gc0 := gcCPU()
	t0 := time.Now()
	for n := 0; n < opt.scale.reps || time.Since(t0).Seconds() < opt.seconds || n%w.sets() != 0; n++ {
		runtime.GC()
		set := n % w.sets()
		r, err := w.rep(set, g, srv)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		probes = append(probes, r.cost.probes...)
		if want, ok := hashes[set]; ok {
			g.check(r.hash == want, "rep %d: report hash %.12s differs from %.12s, the previous rep of work set %d", n+1, r.hash, want, set)
		}
		hashes[set] = r.hash
		for k, v := range r.phase {
			phase[k] = append(phase[k], v)
		}
	}
	// One slowdown for the whole run: the disturbance lasts longer than a
	// rep, and the median of all readings is steadier than a rep's few.
	slow := slowdown(probes)
	var repHash strings.Builder
	for set := 0; set < w.sets(); set++ {
		repHash.WriteString(hashes[set])
	}
	var walls, runs, rps, apr, bpr []float64
	for _, r := range reps {
		walls = append(walls, r.cost.wall.Seconds())
		runs = append(runs, float64(r.runs))
		rps = append(rps, float64(r.runs)/(r.cost.wall.Seconds()/slow))
		apr = append(apr, float64(r.cost.mallocs)/float64(r.runs))
		bpr = append(bpr, float64(r.cost.bytes)/float64(r.runs))
	}
	gc1 := gcCPU()
	if err := w.verify(g); err != nil {
		return nil, err
	}

	res := &WorkloadResult{Name: name, RepHash: hashOf([]byte(repHash.String())), RawWallS: summarize("s", walls), Slowdown: slowdowns(probes), Metrics: map[string]Metric{
		"setup_s":        summarize("s", setups),
		"runs_per_s":     summarize("1/s", rps),
		"allocs_per_run": summarize("count", apr),
		"bytes_per_run":  summarize("B", bpr),
	}}
	if err := decl.checkEndToEnd(res.Metrics); err != nil {
		return nil, err
	}
	if opt.trace {
		tr := newTracer()
		vals, err := w.traced(tr, g)
		if err != nil {
			return nil, err
		}
		layers := map[string]Metric{}
		for k, v := range phase {
			layers[k] = summarize("", v)
		}
		for k, v := range vals {
			layers[k] = summarize("", []float64{v})
		}
		for k, v := range layerProbes(opt.scale.probeIters) {
			layers[k] = summarize("", []float64{v})
		}
		if total := gc1.total - gc0.total; total > 0 {
			layers["runtime.gc_cpu_share"] = summarize("", []float64{(gc1.gc - gc0.gc) / total})
		}
		layers["runtime.peak_rss_mb"] = summarize("", []float64{peakRSSMB()})
		layers["runtime.machine_slowdown"] = summarize("", []float64{slow})
		layers["rep.wall_s"] = summarize("", walls)
		layers["rep.runs"] = summarize("", runs)
		if res.Layers, err = decl.fillLayers(layers); err != nil {
			return nil, err
		}
		path := filepath.Join(opt.root, "bench", "results", "trace-"+name+".json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	}
	res.Attempted, res.Failed, res.Failures = g.attempted, g.failed, g.msgs
	res.Correct = g.failed == 0
	return res, nil
}

type gcSample struct{ gc, total float64 }

// gcCPU reads the cumulative GC and total CPU seconds of the process.
func gcCPU() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// declared is BENCHMARK.json: the one list of workload and metric names the
// harness, the test and -compare all check against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *declared) workloadNames() []string {
	var out []string
	for _, w := range d.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// checkEndToEnd demands exactly the declared end-to-end metrics, each with
// its declared unit and a non-zero value.
func (d *declared) checkEndToEnd(got map[string]Metric) error {
	if len(got) != len(d.EndToEnd) {
		return fmt.Errorf("emitted %d end-to-end metrics, BENCHMARK.json declares %d", len(got), len(d.EndToEnd))
	}
	for _, m := range d.EndToEnd {
		g, ok := got[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("declared end-to-end metric %s was not emitted", m.Name)
		case g.Unit != m.Unit:
			return fmt.Errorf("metric %s: emitted unit %q, declared %q", m.Name, g.Unit, m.Unit)
		case g.Value == 0:
			return fmt.Errorf("metric %s is 0", m.Name)
		}
	}
	return nil
}

// fillLayers stamps the declared unit on every per-layer value, rejects
// undeclared names, and reports a declared metric whose layer this workload
// does not exercise as 0 (the contract wants every per-layer metric on
// every traced run).
func (d *declared) fillLayers(got map[string]Metric) (map[string]Metric, error) {
	out := make(map[string]Metric, len(d.PerLayer))
	for _, m := range d.PerLayer {
		v, ok := got[m.Name]
		if !ok {
			v = Metric{}
		}
		v.Unit = m.Unit
		out[m.Name] = v
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
