package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/heal"
	"repro/internal/modeld"
)

// Capability is one column of the paper's Figure 8.
type Capability int

// The five service dimensions of Figure 8.
const (
	Preventive    Capability = iota // finds bugs before deployment
	Diagnostic                      // explains a concrete failure
	Treatment                       // repairs / resumes the system
	Comprehensive                   // covers the space of behaviours, not just one run
	Opportunistic                   // operates on executions as they happen
)

// Capabilities in column order.
var Capabilities = []Capability{Preventive, Diagnostic, Treatment, Comprehensive, Opportunistic}

// String returns the column label.
func (c Capability) String() string {
	switch c {
	case Preventive:
		return "preventive"
	case Diagnostic:
		return "diagnostic"
	case Treatment:
		return "treatment"
	case Comprehensive:
		return "comprehensive"
	case Opportunistic:
		return "opportunistic"
	default:
		return fmt.Sprintf("Capability(%d)", int(c))
	}
}

// MatrixRow is one technique or tool with its capability set and, for each
// claimed capability, an executable demonstration.
type MatrixRow struct {
	Name  string
	Techs string // technique composition, e.g. "L & CR"
	Has   map[Capability]bool
	Demos map[Capability]func() error
}

// PaperMatrix returns Figure 8 exactly as printed in the paper. Rows for
// *tools* carry executable demos proving each √ against this repository's
// implementations.
func PaperMatrix() []MatrixRow {
	row := func(name, techs string, caps ...Capability) MatrixRow {
		r := MatrixRow{Name: name, Techs: techs, Has: map[Capability]bool{}, Demos: map[Capability]func() error{}}
		for _, c := range caps {
			r.Has[c] = true
		}
		return r
	}
	mc := row("Model Checking (MC)", "MC", Preventive, Comprehensive)
	logging := row("Logging (L)", "L", Diagnostic, Opportunistic)
	cr := row("Checkpoint & Rollback (CR)", "CR", Opportunistic)
	du := row("Dynamic Updates (DU)", "DU", Treatment)
	spec := row("Speculations (S)", "S", Treatment, Opportunistic)

	liblog := row("liblog (L & CR)", "L & CR", Diagnostic, Opportunistic)
	liblog.Demos[Diagnostic] = demoLiblogDiagnose
	liblog.Demos[Opportunistic] = demoLiblogDiagnose // recording happens on the live run

	cmc := row("CMC (MC)", "MC", Opportunistic)
	cmc.Demos[Opportunistic] = demoCMC

	fixd := row("FixD (MC & L & S & DU)", "MC & L & S & DU",
		Preventive, Diagnostic, Treatment, Comprehensive, Opportunistic)
	fixd.Demos[Preventive] = demoFixDPreventive
	fixd.Demos[Diagnostic] = demoFixDDiagnostic
	fixd.Demos[Treatment] = demoFixDTreatment
	fixd.Demos[Comprehensive] = demoFixDComprehensive
	fixd.Demos[Opportunistic] = demoFixDOpportunistic

	return []MatrixRow{mc, logging, cr, du, spec, liblog, cmc, fixd}
}

// runE8 reproduces Figure 8 and executes every tool demo as evidence.
func runE8() *Table {
	t := &Table{ID: "E8", Title: "Figure 8: characteristics of techniques and tools", Header: []string{"system"}}
	for _, c := range Capabilities {
		t.Header = append(t.Header, c.String())
	}
	t.Header = append(t.Header, "demos")
	mark := func(b bool) string {
		if b {
			return "Y"
		}
		return "-"
	}
	for _, r := range PaperMatrix() {
		passed, total := 0, 0
		for _, c := range Capabilities {
			if demo, ok := r.Demos[c]; ok {
				total++
				if demo() == nil {
					passed++
				}
			}
		}
		demoCell := "(taxonomy)"
		if total > 0 {
			demoCell = fmt.Sprintf("%d/%d pass", passed, total)
		}
		t.Add(r.Name, mark(r.Has[Preventive]), mark(r.Has[Diagnostic]), mark(r.Has[Treatment]),
			mark(r.Has[Comprehensive]), mark(r.Has[Opportunistic]), demoCell)
	}
	t.Note("Y/- reproduce the paper's check marks; tool rows carry executable demos against this repo's implementations")
	return t
}

func demoLiblogDiagnose() error {
	s, factories := buggy2PC()
	s.Run()
	d, err := baselines.Diagnose(s, apps.PartName(1), factories[apps.PartName(1)]())
	if err != nil {
		return err
	}
	if d.Diverged || len(d.Faults) == 0 {
		return fmt.Errorf("diagnosis incomplete: %+v", d)
	}
	return nil
}

func demoCMC() error {
	rep, err := baselines.CMCCheck(twoPCFactories(buggyTwoPC), []fault.GlobalInvariant{apps.TwoPCAtomicity()}, 50_000, 40)
	if err != nil {
		return err
	}
	if rep.Violations == 0 {
		return fmt.Errorf("CMC missed the bug")
	}
	return nil
}

func demoFixDPreventive() error {
	// Verify an abstract guarded-command model before deployment.
	root, engine := guard.Mutex(3, false)
	res := engine.Explore(root, modeld.Options{Strategy: modeld.BFS, MaxStates: 500_000})
	if len(res.Violations) != 0 || res.Truncated {
		return fmt.Errorf("preventive verification failed: %d violations", len(res.Violations))
	}
	return nil
}

func demoFixDDiagnostic() error {
	inv, err := investigate2PC(core.Config{StopAtFirstViolation: true, MaxStates: 50_000, MaxDepth: 40})
	if err != nil {
		return err
	}
	if !inv.Violating() {
		return fmt.Errorf("no violation trail produced")
	}
	return nil
}

func demoFixDTreatment() error {
	s, _ := buggy2PC()
	fixedCfg := buggyTwoPC
	fixedCfg.Buggy = false
	s.Run()
	line := heal.VerifiedLine(s, nil)
	if line == nil {
		return fmt.Errorf("no recovery line")
	}
	rep, err := heal.Apply(s, line, heal.Program{Version: "fixed", Factories: twoPCFactories(fixedCfg)}, nil, heal.VerifyOptions{})
	if err != nil {
		return err
	}
	if !rep.Verified() {
		return fmt.Errorf("update refused: %v", rep.Failures)
	}
	return nil
}

func demoFixDComprehensive() error {
	// The Investigator must exhaust the bounded state space (not a single
	// path) and return the complete set of violating trails within it.
	inv, err := investigate2PC(core.Config{MaxStates: 200_000, MaxDepth: 32})
	if err != nil {
		return err
	}
	if inv.Truncated {
		return fmt.Errorf("exploration truncated")
	}
	if !inv.Violating() {
		return fmt.Errorf("no trails")
	}
	return nil
}

func demoFixDOpportunistic() error {
	// Live speculation rollback on a concrete run: branch 0 transfers on an
	// assumption, the branch its credit reaches is absorbed, and the abort
	// rolls both back. No credit is lost: the one sent to branch 0 before
	// the speculation reached it is re-delivered.
	cfg := apps.BankConfig{Branches: 2, AccountsPer: 2, InitialBalance: 100, Transfers: 1}
	s := dsim.New(dsim.Config{Seed: 2, MinLatency: 1, MaxLatency: 1})
	var branch *speculatingBranch
	for id, m := range apps.NewBank(cfg) {
		if id == apps.BankProcName(0) {
			branch = &speculatingBranch{Machine: m}
			m = branch
		}
		s.AddProcess(id, m)
	}
	s.Run()
	if branch.err != nil {
		return branch.err
	}
	if st := s.SpeculationStats(); st.Aborts != 1 || st.Rollbacks != 2 {
		return fmt.Errorf("aborts = %d, rollbacks = %d, want 1 and 2", st.Aborts, st.Rollbacks)
	}
	var sent, recv int64
	for _, id := range s.Procs() {
		var st struct{ SentCredits, RecvCredits int64 }
		if err := json.Unmarshal(s.MachineState(id), &st); err != nil {
			return err
		}
		sent, recv = sent+st.SentCredits, recv+st.RecvCredits
	}
	if sent != recv {
		return fmt.Errorf("credits sent %d, received %d", sent, recv)
	}
	return nil
}

// speculatingBranch is a bank branch that speculates from the end of Init
// that its transfers will be accepted, and aborts at time 20. It keeps the
// first error Speculate or AbortSpec returns.
type speculatingBranch struct {
	dsim.Machine
	spec string
	err  error
}

func (b *speculatingBranch) Init(ctx dsim.Context) {
	b.Machine.Init(ctx)
	b.spec, b.err = ctx.Speculate("the credit will be accepted")
	ctx.SetTimer("verify", 20)
}

func (b *speculatingBranch) OnTimer(ctx dsim.Context, name string) {
	if name == "verify" {
		if err := ctx.AbortSpec(b.spec, "credit rejected"); b.err == nil {
			b.err = err
		}
		return
	}
	b.Machine.OnTimer(ctx, name)
}
