// fixd-demo narrates one complete FixD pipeline execution (paper Figs.
// 1-5) on the buggy two-phase-commit workload:
//
//	detect  — a participant's binding NO vote is contradicted by a
//	          timeout-commit from the buggy coordinator (local fault);
//	rollback — the coordinator assembles a consistent checkpoint line;
//	investigate — ModelD explores delivery/timer orders from that line and
//	          prints the trails that violate 2PC atomicity;
//	heal    — the corrected coordinator is injected by dynamic update and
//	          the run resumes from the line.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/fixd"
	"repro/internal/apps"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	maxStates := flag.Int("max-states", 50_000, "investigation state budget")
	flag.Parse()
	if err := run(*seed, *maxStates, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fixd-demo:", err)
		os.Exit(1)
	}
}

// run executes the narrated pipeline; the demo is test-invokable with a
// small state budget.
func run(seed int64, maxStates int, out io.Writer) error {
	bugCfg := apps.TwoPCConfig{
		Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1},
		Timeout: 10, VoteDelay: 100, Buggy: true,
	}
	fixCfg := bugCfg
	fixCfg.Buggy = false

	fixedFactories := map[string]func() fixd.Machine{}
	for id := range apps.NewTwoPC(fixCfg) {
		id := id
		fixedFactories[id] = func() fixd.Machine { return apps.NewTwoPC(fixCfg)[id] }
	}

	sys := fixd.New(fixd.Config{
		Seed: seed, MinLatency: 1, MaxLatency: 2, MaxSteps: 5000,
		CICheckpoint: true,
	})
	for id := range apps.NewTwoPC(bugCfg) {
		id := id
		sys.Add(id, func() fixd.Machine { return apps.NewTwoPC(bugCfg)[id] })
	}
	sys.AddInvariant(apps.TwoPCAtomicity())
	sys.Protect(fixd.ProtectOptions{
		StopAtFirstViolation: true,
		MaxStates:            maxStates,
		MaxDepth:             40,
		AutoHeal:             &fixd.Program{Version: "2pc-fixed", Factories: fixedFactories},
	})

	fmt.Fprintln(out, "[ run ] starting buggy two-phase commit under FixD protection ...")
	sys.Run()
	return narrate(sys, out)
}

// narrate prints the fault response of a protected run stage by stage,
// then resumes the healed system and checks it.
func narrate(sys *fixd.System, out io.Writer) error {
	resp := sys.Response()
	if resp == nil {
		fmt.Fprintln(out, "[ run ] completed without faults — nothing to do")
		return nil
	}

	fmt.Fprintf(out, "[detect] %s reported: %s (t=%d, clock=%s)\n",
		resp.Fault.Proc, resp.Fault.Desc, resp.Fault.Time, resp.Fault.Clock)
	fmt.Fprintf(out, "[rollbk] consistent recovery line over %d checkpoints, %d protocol messages\n",
		len(resp.Line), resp.Messages)
	procs := make([]string, 0, len(resp.Line))
	for proc := range resp.Line {
		procs = append(procs, proc)
	}
	sort.Strings(procs)
	for _, proc := range procs {
		fmt.Fprintf(out, "         %-8s -> %s @ %s\n", proc, resp.Line[proc], resp.LineClocks[proc])
	}

	if resp.Err != nil {
		return fmt.Errorf("fault response failed: %w", resp.Err)
	}
	inv := resp.Investigation
	fmt.Fprintf(out, "[invest] explored %d states / %d transitions (depth <= %d, truncated=%v)\n",
		inv.StatesExplored, inv.Transitions, inv.MaxDepth, inv.Truncated)
	if !inv.Violating() {
		return errors.New("investigation found no violation trails")
	}
	trail := inv.ShortestTrail()
	fmt.Fprintf(out, "[invest] shortest trail to %q (%d steps):\n", trail.Invariant, len(trail.Steps))
	for i, step := range trail.Steps {
		fmt.Fprintf(out, "         %2d. %s\n", i+1, step)
	}

	if resp.Heal == nil {
		fmt.Fprintln(out, "[ heal ] skipped (no recovery line)")
		return nil
	}
	fmt.Fprintf(out, "[ heal ] dynamic update to %q: typeSafe=%v invariants=%v verified=%v\n",
		resp.Heal.Version, resp.Heal.TypeSafe, resp.Heal.InvariantsOK, resp.Heal.Verified())
	if !resp.Heal.Verified() {
		for _, f := range resp.Heal.Failures {
			fmt.Fprintf(out, "         refused: %s\n", f)
		}
		return errors.New("heal refused")
	}
	fmt.Fprintln(out, "[resume] continuing from the recovery line with the corrected program ...")
	sys.Resume()
	if bad := sys.CheckInvariants(); len(bad) > 0 {
		return fmt.Errorf("invariants still violated after resume: %v", bad)
	}
	fmt.Fprintln(out, "[ done ] system recovered; all invariants hold")
	return nil
}
