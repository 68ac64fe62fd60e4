// Package modeld implements ModelD, the guarded-command model checker that
// is one of the paper's stated contributions (§1, §4.3, Fig. 7).
//
// The engine mirrors the paper's description of the back-end component: the
// behaviour of a system is a set of guarded commands (Actions) that "can be
// chosen for execution any time" their guard holds; the engine performs the
// state transitions, keeps track of visited execution paths (the
// reachability graph), and verifies that no user-specified invariant is
// violated. Two properties the paper calls out are central here:
//
//   - the set of actions is assembled at run time (AddAction) — the hook
//     the Investigator uses to put models of communication beside the
//     processes' own actions, and the Healer uses to explore updated code
//     (§4.3, §4.4);
//   - the search order is customizable (Strategy, Heuristic) — including a
//     single-path mode that makes the engine execute "the path the
//     'conventional' implementation would take" (§4.3): the first enabled
//     action in action-set order.
//
// Like CMC (§2.1), the engine also reports deadlock states, in which no
// action is enabled.
//
// All five search orders run one loop (Explore) over one frontier: FIFO for
// BFS, LIFO for DFS and the two walks, a min-heap on (heuristic value, push
// order) for Heuristic. A state is recorded — counted, checked against the
// invariants and entered into the reachability graph — the first time any
// transition reaches it, root included, so every strategy reports a
// violating state once, with the graph path to its first visit as its
// trail, and lists a deadlock state once. The graph strategies (BFS, DFS,
// Heuristic) push every successor they record; the walks (RandomWalk,
// SinglePath) push one successor per state whether it was recorded before
// or not, so a walk may pass through a state many times but keeps only the
// graph, never a second count, check or report of it.
package modeld

import (
	"fmt"
	"math/rand"
	"sync"
)

// State is an immutable snapshot of the modeled system. Implementations
// must provide a canonical fingerprint: two states are identical iff their
// Keys are equal.
type State interface {
	// Key returns a canonical encoding of the state used for visited-set
	// deduplication in the reachability graph.
	Key() string
	// Clone returns a deep copy that actions may mutate safely.
	Clone() State
}

// Action is one guarded command: Enabled is the guard, Apply the effect.
// Apply must not mutate its argument; it returns the successor state(s).
// Most actions are deterministic (one successor), but an action may model
// internal nondeterminism by returning several.
type Action interface {
	Name() string
	Enabled(s State) bool
	Apply(s State) []State
}

// actionFunc adapts plain functions to Action.
type actionFunc struct {
	name  string
	guard func(State) bool
	apply func(State) []State
}

func (a *actionFunc) Name() string          { return a.name }
func (a *actionFunc) Enabled(s State) bool  { return a.guard(s) }
func (a *actionFunc) Apply(s State) []State { return a.apply(s) }

// NewAction builds an Action from a guard and a single-successor effect.
// The effect receives a private clone and mutates it in place.
func NewAction(name string, guard func(State) bool, effect func(State)) Action {
	return &actionFunc{
		name:  name,
		guard: guard,
		apply: func(s State) []State {
			c := s.Clone()
			effect(c)
			return []State{c}
		},
	}
}

// NewBranchingAction builds an Action whose effect may produce multiple
// successors (internal nondeterminism, e.g. a modeled lossy network).
func NewBranchingAction(name string, guard func(State) bool, apply func(State) []State) Action {
	return &actionFunc{name: name, guard: guard, apply: apply}
}

// Invariant is a named safety property evaluated in every generated state.
type Invariant struct {
	Name  string
	Holds func(State) bool
}

// Strategy selects the search order for the state graph (paper §4.3: "the
// ability to customize the search order").
type Strategy int

// Search strategies.
const (
	BFS        Strategy = iota // breadth-first: shortest counterexamples
	DFS                        // depth-first: low memory frontier
	Heuristic                  // priority order by Options.Heuristic
	RandomWalk                 // repeated randomized walks (Options.Seed)
	SinglePath                 // follow one schedule, as conventional execution
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case BFS:
		return "bfs"
	case DFS:
		return "dfs"
	case Heuristic:
		return "heuristic"
	case RandomWalk:
		return "random"
	case SinglePath:
		return "single"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options bound and direct an exploration.
type Options struct {
	Strategy  Strategy
	MaxStates int // 0 = 100_000
	// MaxDepth bounds a state's depth, or a walk's length; 0 is unbounded
	// for the graph strategies, 10_000 steps for SinglePath and 200 per
	// walk for RandomWalk.
	MaxDepth int
	// Heuristic orders the frontier for the Heuristic strategy; lower
	// values are explored first, ties in push order.
	Heuristic func(s State, depth int) int
	// Seed drives the RandomWalk strategy's choices of action and successor.
	Seed int64
	// StopAtFirstViolation ends the exploration at the first violation.
	StopAtFirstViolation bool
	// CheckDeadlock records states with no enabled action.
	CheckDeadlock bool
}

// Step is one transition in a trail.
type Step struct {
	Action   string // action taken
	StateKey string // key of the state reached
}

// Violation reports one invariant violation and the trail that leads to it
// from the exploration root — the "set of trails that lead to invariant
// violations" of paper §3.3.
type Violation struct {
	Invariant string
	Trail     []Step
	State     State
	Depth     int
}

// Result summarizes an exploration.
type Result struct {
	StatesVisited int
	Transitions   int
	MaxDepthSeen  int // largest depth of a recorded state: its trail's length
	Violations    []Violation
	Deadlocks     []string // keys of states with no enabled action
	Truncated     bool     // hit MaxStates, or a state or walk stopped at MaxDepth
	FrontierPeak  int
	GraphBytes    int // approximate memory of the reachability graph (keys)
}

// Engine is the ModelD back-end: a dynamic action set, a set of invariants,
// and an explorer. Safe for concurrent use; explorations snapshot the
// action set at start.
type Engine struct {
	mu         sync.Mutex
	actions    []Action
	invariants []Invariant
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// AddAction appends an action to the dynamic action set.
func (e *Engine) AddAction(a Action) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.actions = append(e.actions, a)
}

// Actions returns a copy of the current action set.
func (e *Engine) Actions() []Action {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Action(nil), e.actions...)
}

// AddInvariant registers a safety property.
func (e *Engine) AddInvariant(inv Invariant) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.invariants = append(e.invariants, inv)
}

// Invariants returns a copy of the registered invariants.
func (e *Engine) Invariants() []Invariant {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Invariant(nil), e.invariants...)
}

// Walk bounds: the default MaxDepth of each walk, and how many walks
// RandomWalk starts from the root.
const (
	singlePathDepth = 10_000
	randomWalkDepth = 200
	randomWalks     = 32
)

// Explore runs the engine from root under the given options and returns
// the exploration result, including every violation trail found.
//
// It pops a state from the frontier, enables the actions on it and takes
// its transitions, until the frontier is empty. SinglePath takes the first
// enabled action's first successor; RandomWalk takes a seeded random action
// and successor, and restarts from the root 32 times.
func (e *Engine) Explore(root State, opts Options) *Result {
	if opts.MaxStates <= 0 {
		opts.MaxStates = 100_000
	}
	walks := 1
	var pick func(n int) int // a walk's choice among n; nil for the graph strategies
	switch opts.Strategy {
	case SinglePath:
		pick = func(int) int { return 0 }
		if opts.MaxDepth <= 0 {
			opts.MaxDepth = singlePathDepth
		}
	case RandomWalk:
		walks, pick = randomWalks, rand.New(rand.NewSource(opts.Seed)).Intn
		if opts.MaxDepth <= 0 {
			opts.MaxDepth = randomWalkDepth
		}
	}
	actions := e.Actions()
	x := &explorer{opts: opts, invariants: e.Invariants(), graph: make(map[string]*node)}
	rootNode := x.record(root, root.Key(), nil, "")
	enabled := make([]Action, 0, len(actions))
	for w := 0; w < walks && !x.stop; w++ {
		x.push(root, rootNode, 0)
		for len(x.frontier) > 0 {
			it := x.pop()
			enabled = enabled[:0]
			for _, a := range actions {
				if a.Enabled(it.state) {
					enabled = append(enabled, a)
				}
			}
			if len(enabled) == 0 && opts.CheckDeadlock && !it.n.dead {
				it.n.dead = true
				x.res.Deadlocks = append(x.res.Deadlocks, it.n.key)
			}
			// A state at the bound truncates only if it had somewhere to go.
			if opts.MaxDepth > 0 && it.steps >= opts.MaxDepth {
				x.res.Truncated = x.res.Truncated || len(enabled) > 0
				continue
			}
			if pick != nil && len(enabled) > 0 {
				enabled = append(enabled[:0], enabled[pick(len(enabled))])
			}
			for _, a := range enabled {
				succs := a.Apply(it.state)
				if pick != nil && len(succs) > 0 {
					succs = succs[pick(len(succs)):][:1]
				}
				for _, succ := range succs {
					n, fresh := x.step(it.n, a, succ)
					if x.stop {
						return &x.res
					}
					if fresh || pick != nil && n != nil {
						x.push(succ, n, it.steps+1)
					}
				}
			}
		}
	}
	return &x.res
}

// node is a reachability-graph entry: a state's first visit.
type node struct {
	key    string
	parent *node  // the state it was first reached from; nil for the root
	action string // the action that first reached it
	depth  int32  // transitions from the root on that path
	dead   bool   // listed in Result.Deadlocks
}

// trail is the graph path from the root to n.
func (n *node) trail() []Step {
	out := make([]Step, n.depth)
	for ; n.parent != nil; n = n.parent {
		out[n.depth-1] = Step{Action: n.action, StateKey: n.key}
	}
	return out
}

// item is a frontier entry: a state, its graph node, the steps of the path
// that pushed it (its depth, or a walk's length) and its heap order.
type item struct {
	state     State
	n         *node
	steps     int
	prio, seq int
}

// explorer is one exploration: the reachability graph, the frontier and
// the result.
type explorer struct {
	opts       Options
	invariants []Invariant
	graph      map[string]*node
	frontier   []item
	seq        int
	res        Result
	stop       bool // a violation ended the exploration (StopAtFirstViolation)
}

// record enters s, first reached from parent by action, into the graph,
// counts it and checks the invariants on it.
func (x *explorer) record(s State, key string, parent *node, action string) *node {
	n := &node{key: key, parent: parent, action: action}
	if parent != nil {
		n.depth = parent.depth + 1
	}
	x.graph[key] = n
	x.res.StatesVisited++
	x.res.GraphBytes += len(key)
	x.res.MaxDepthSeen = max(x.res.MaxDepthSeen, int(n.depth))
	for _, inv := range x.invariants {
		if !inv.Holds(s) {
			x.res.Violations = append(x.res.Violations, Violation{Invariant: inv.Name, Trail: n.trail(), State: s, Depth: int(n.depth)})
			x.stop = x.opts.StopAtFirstViolation
		}
	}
	return n
}

// step counts one transition, by a from the state of from, into succ and
// records succ the first time it is reached. It returns succ's node, nil
// when succ is new but MaxStates is reached, and whether this transition
// recorded it.
func (x *explorer) step(from *node, a Action, succ State) (*node, bool) {
	x.res.Transitions++
	key := succ.Key()
	if n := x.graph[key]; n != nil {
		return n, false
	}
	if x.res.StatesVisited >= x.opts.MaxStates {
		x.res.Truncated = true
		return nil, false
	}
	return x.record(succ, key, from, a.Name()), true
}

// push adds s, whose node is n, to the frontier.
func (x *explorer) push(s State, n *node, steps int) {
	x.seq++
	it := item{state: s, n: n, steps: steps, seq: x.seq}
	if x.opts.Strategy == Heuristic && x.opts.Heuristic != nil {
		it.prio = x.opts.Heuristic(s, int(n.depth))
	}
	x.frontier = append(x.frontier, it)
	x.res.FrontierPeak = max(x.res.FrontierPeak, len(x.frontier))
	if x.opts.Strategy != Heuristic {
		return
	}
	for i := len(x.frontier) - 1; i > 0; { // sift up
		up := (i - 1) / 2
		if !x.before(i, up) {
			break
		}
		x.frontier[i], x.frontier[up] = x.frontier[up], x.frontier[i]
		i = up
	}
}

// pop takes the next state off the frontier in the strategy's order.
func (x *explorer) pop() item {
	f := x.frontier
	switch x.opts.Strategy {
	case Heuristic:
		it, last := f[0], len(f)-1
		f[0], x.frontier = f[last], f[:last]
		for i := 0; ; { // sift down
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && x.before(c+1, c) {
				c++
			}
			if !x.before(c, i) {
				break
			}
			f[i], f[c] = f[c], f[i]
			i = c
		}
		return it
	case DFS, RandomWalk, SinglePath:
		x.frontier = f[:len(f)-1]
		return f[len(f)-1]
	default:
		x.frontier = f[1:]
		return f[0]
	}
}

// before orders the Heuristic frontier by (prio, seq).
func (x *explorer) before(i, j int) bool {
	a, b := &x.frontier[i], &x.frontier[j]
	return a.prio < b.prio || a.prio == b.prio && a.seq < b.seq
}

// ShortestViolation returns the violation with the shortest trail, or nil.
func (r *Result) ShortestViolation() *Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	best := &r.Violations[0]
	for i := range r.Violations[1:] {
		v := &r.Violations[i+1]
		if len(v.Trail) < len(best.Trail) {
			best = v
		}
	}
	return best
}
