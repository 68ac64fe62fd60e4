// Package guard is the ModelD front-end: a builder DSL for declaring
// guarded-command models over named integer variables.
//
// The paper's ModelD front-end is a Camlp4 syntax extension that makes
// OCaml "more like a conventional model checking language" (§4.3, Fig. 7).
// The Go equivalent is a fluent builder: Model.Action("x").When(guard).
// Do(effect) declares one guarded command, and Build hands the result to
// the modeld engine.
package guard

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/modeld"
)

// Vars is the concrete model state: a map of named int64 variables. It
// implements modeld.State.
type Vars map[string]int64

// Key returns the canonical "k=v" encoding, sorted by name.
func (v Vars) Key() string {
	names := make([]string, 0, len(v))
	for k := range v {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, v[k])
	}
	return b.String()
}

// Clone returns an independent copy.
func (v Vars) Clone() modeld.State {
	c := make(Vars, len(v))
	for k, x := range v {
		c[k] = x
	}
	return c
}

// Get returns the variable's value (0 if unset).
func (v Vars) Get(name string) int64 { return v[name] }

// Set assigns a variable.
func (v Vars) Set(name string, x int64) { v[name] = x }

// Model accumulates guarded commands, invariants, and the initial state.
type Model struct {
	initial    Vars
	actions    []modeld.Action
	invariants []modeld.Invariant
}

// NewModel returns an empty model with an empty initial state.
func NewModel() *Model { return &Model{initial: Vars{}} }

// Init sets an initial variable value. It returns the model for chaining.
func (m *Model) Init(name string, x int64) *Model {
	m.initial[name] = x
	return m
}

// ActionBuilder accumulates one guarded command.
type ActionBuilder struct {
	model *Model
	name  string
	guard func(Vars) bool
}

// Action begins declaring a guarded command with the given name.
func (m *Model) Action(name string) *ActionBuilder {
	return &ActionBuilder{model: m, name: name}
}

// When sets the guard predicate. Omitting When means always enabled.
func (b *ActionBuilder) When(guard func(Vars) bool) *ActionBuilder {
	b.guard = guard
	return b
}

// Do sets the effect and registers the command with the model. The effect
// mutates a private copy of the state. It returns the model for chaining.
func (b *ActionBuilder) Do(effect func(Vars)) *Model {
	guard := b.guard
	if guard == nil {
		guard = func(Vars) bool { return true }
	}
	b.model.actions = append(b.model.actions, modeld.NewAction(
		b.name,
		func(s modeld.State) bool { return guard(s.(Vars)) },
		func(s modeld.State) { effect(s.(Vars)) },
	))
	return b.model
}

// Invariant registers a named safety property over the variables.
func (m *Model) Invariant(name string, holds func(Vars) bool) *Model {
	m.invariants = append(m.invariants, modeld.Invariant{
		Name:  name,
		Holds: func(s modeld.State) bool { return holds(s.(Vars)) },
	})
	return m
}

// Build returns the initial state and a ModelD engine loaded with the
// model's actions and invariants.
func (m *Model) Build() (modeld.State, *modeld.Engine) {
	e := modeld.NewEngine()
	for _, a := range m.actions {
		e.AddAction(a)
	}
	for _, inv := range m.invariants {
		e.AddInvariant(inv)
	}
	return m.initial.Clone(), e
}

// Mutex builds the n-process flag/turn mutual-exclusion model: a process
// enters when it holds the turn and passes the turn on as it leaves, and
// independent local work makes the state space grow exponentially with n.
// The safe variant can also rest (undo a unit of work); buggy instead lets
// a process that has worked twice barge in without the turn — a deep,
// schedule-dependent violation of the "mutex" invariant. Each variant keeps
// the action order experiments E7 and E8 were measured with.
func Mutex(n int, buggy bool) (modeld.State, *modeld.Engine) {
	m := NewModel().Init("turn", 0)
	for i := range n {
		cs, w := fmt.Sprintf("cs%d", i), fmt.Sprintf("w%d", i)
		m.Init(cs, 0)
		m.Init(w, 0)
		m.Action(fmt.Sprintf("p%d-enter", i)).
			When(func(v Vars) bool { return v.Get("turn") == int64(i) && v.Get(cs) == 0 }).
			Do(func(v Vars) { v.Set(cs, 1) })
		if buggy {
			m.Action(fmt.Sprintf("p%d-barge", i)).
				When(func(v Vars) bool { return v.Get(w) >= 2 && v.Get(cs) == 0 }).
				Do(func(v Vars) { v.Set(cs, 1) }) // BUG: ignores the turn
		}
		m.Action(fmt.Sprintf("p%d-leave", i)).
			When(func(v Vars) bool { return v.Get(cs) == 1 }).
			Do(func(v Vars) {
				v.Set(cs, 0)
				v.Set("turn", (int64(i)+1)%int64(n))
			})
		m.Action(fmt.Sprintf("p%d-work", i)).
			When(func(v Vars) bool { return v.Get(w) < 2 }).
			Do(func(v Vars) { v.Set(w, v.Get(w)+1) })
		if !buggy {
			m.Action(fmt.Sprintf("p%d-rest", i)).
				When(func(v Vars) bool { return v.Get(w) > 0 }).
				Do(func(v Vars) { v.Set(w, v.Get(w)-1) })
		}
	}
	m.Invariant("mutex", func(v Vars) bool {
		in := 0
		for i := range n {
			in += int(v.Get(fmt.Sprintf("cs%d", i)))
		}
		return in <= 1
	})
	return m.Build()
}
