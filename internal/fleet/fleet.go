package fleet

import (
	"context"
	"fmt"

	"repro/internal/chaos"
)

// Search runs the coverage-guided chaos search as a local fleet: one
// coordinator owning the frontier, cfg.Workers in-process workers leasing
// candidate batches over loopback TCP. It mirrors chaos.Search — for a
// fixed (seed, budget) the report is byte-identical to the in-process
// search at any worker count, because candidates are generated
// sequentially on the coordinator and admitted in candidate order no
// matter which worker evaluated them.
//
// Workers == 0 runs the coordinator alone: each frontier evaluates its
// tasks on its own goroutine as it enqueues them, which is the degenerate
// (but still correct) fleet. So does every frontier of a larger fleet
// until the first worker's handshake lands.
func Search(cfg Config) (*chaos.SearchReport, error) {
	if cfg.NoLocalFallback && cfg.Workers <= 0 {
		return nil, fmt.Errorf("fleet: NoLocalFallback with zero workers cannot make progress")
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < cfg.Workers; i++ {
		w := &Worker{Join: coord.Addr(), Name: fmt.Sprintf("local-%d", i)}
		go w.Run(ctx)
	}
	rep, err := coord.Run()
	cancel()
	if cerr := coord.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}
