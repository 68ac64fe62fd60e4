package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/fault"
)

// withPageSize returns the specs with every simulation they configure on
// the given copy-on-write page size.
func withPageSize(specs []apps.AppSpec, pageSize int) []apps.AppSpec {
	out := slices.Clone(specs)
	for i := range out {
		config := out[i].Config
		out[i].Config = func(buggy bool) dsim.Config {
			cfg := config(buggy)
			cfg.HeapPageSize = pageSize
			return cfg
		}
	}
	return out
}

// TestPageSizeNotObservable: the copy-on-write unit is a cost knob only.
// Across Registry+Zoo, a matrix sweep of the correct variants (crash-restart
// and rollback cells included, which restore heaps from checkpoints), a
// search of the seeded-bug variants down to its shrunk artifacts, and the
// per-process replay of a recorded run give byte-identical results whether
// heaps copy 1 KiB or 4 KiB pages.
func TestPageSizeNotObservable(t *testing.T) {
	all := append(apps.Registry(), apps.Zoo()...)
	type outcome struct{ matrix, search, replays []byte }
	run := func(pageSize int) (o outcome) {
		specs := withPageSize(all, pageSize)
		m := RunMatrix(MatrixConfig{Apps: specs, Kinds: append(slices.Clone(MatrixKinds), fault.Rollback), Seeds: []int64{1, 2}})
		for _, c := range m.Failures() {
			t.Errorf("page size %d: cell %v: %s", pageSize, c.Cell, c.Fail())
		}
		o.matrix, _ = json.Marshal(m)

		s := Search(SearchConfig{Apps: specs, Buggy: true, Seed: 3, Budget: 32, CheckEvery: 256})
		if len(s.Failures()) == 0 {
			t.Errorf("page size %d: the search found no failure, so no artifact is compared", pageSize)
		}
		o.search, _ = json.Marshal(s)

		var replays bytes.Buffer
		for _, spec := range specs {
			cfg := spec.Config(false)
			cfg.Seed = 5
			sim := dsim.New(cfg)
			ms, fresh := spec.Make(false), spec.Make(false)
			ids := Runner{Spec: spec}.Procs()
			for _, id := range ids {
				sim.AddProcess(id, ms[id])
			}
			sim.Run()
			for _, id := range ids {
				res, err := dsim.Replay(id, fresh[id], sim.Scroll(id).Records(), cfg.HeapSize, cfg.HeapPageSize)
				if err != nil || res.Diverged {
					t.Fatalf("page size %d: replay of %s/%s: %+v, %v", pageSize, spec.Name, id, res, err)
				}
				fmt.Fprintf(&replays, "%s %s %d %d %x\n", spec.Name, id, res.Events, res.Sends, res.HeapHash)
			}
		}
		o.replays = replays.Bytes()
		return o
	}
	small, large := run(1024), run(4096)
	if !bytes.Equal(small.matrix, large.matrix) {
		t.Error("the matrix report depends on the heap page size")
	}
	if !bytes.Equal(small.search, large.search) {
		t.Error("the search report (corpus, failures, artifacts) depends on the heap page size")
	}
	if !bytes.Equal(small.replays, large.replays) {
		t.Errorf("replayed heaps depend on the heap page size:\n%s\nvs\n%s", small.replays, large.replays)
	}
}
