package analysis

import (
	"go/ast"
)

// Detwall forbids ambient-input reads — wall clocks, the global math/rand
// generator, environment variables, host CPU topology — inside the
// deterministic core. Every value a machine observes must flow from the
// seeded simulation (Context.Now/Random, the substrate tick) or the run
// configuration; an ambient read is a replay-divergence bug that no seed
// sweep is guaranteed to catch. Seeded rand.New(rand.NewSource(seed)) is
// fine and common; the global top-level rand functions are not.
//
// Intentional sites (the live backend's wall-clock bridge) carry
// //fixd:wallclock <reason>.
var Detwall = &Analyzer{
	Name: "detwall",
	Doc:  "forbid wall-clock, global-rand, env, and CPU-topology reads in the deterministic core",
	Run:  runDetwall,
}

// detwallForbidden maps package path -> selected name -> why it is
// nondeterministic. Referencing the name at all is flagged (passing
// time.Now as a function value is as nondeterministic as calling it).
var detwallForbidden = map[string]map[string]string{
	"time": {
		"Now": "reads the wall clock", "Since": "reads the wall clock",
		"Until": "reads the wall clock", "Sleep": "blocks on the wall clock",
		"After": "arms a wall-clock timer", "Tick": "arms a wall-clock timer",
		"NewTimer": "arms a wall-clock timer", "NewTicker": "arms a wall-clock timer",
		"AfterFunc": "arms a wall-clock timer",
	},
	"math/rand": {
		"Int": "draws from the unseeded global generator", "Intn": "draws from the unseeded global generator",
		"Int31": "draws from the unseeded global generator", "Int31n": "draws from the unseeded global generator",
		"Int63": "draws from the unseeded global generator", "Int63n": "draws from the unseeded global generator",
		"Uint32": "draws from the unseeded global generator", "Uint64": "draws from the unseeded global generator",
		"Float32": "draws from the unseeded global generator", "Float64": "draws from the unseeded global generator",
		"ExpFloat64": "draws from the unseeded global generator", "NormFloat64": "draws from the unseeded global generator",
		"Perm": "draws from the unseeded global generator", "Shuffle": "draws from the unseeded global generator",
		"Read": "draws from the unseeded global generator", "Seed": "reseeds the shared global generator",
	},
	"math/rand/v2": {
		"Int": "draws from the shared global generator", "IntN": "draws from the shared global generator",
		"Int32": "draws from the shared global generator", "Int32N": "draws from the shared global generator",
		"Int64": "draws from the shared global generator", "Int64N": "draws from the shared global generator",
		"Uint32": "draws from the shared global generator", "Uint32N": "draws from the shared global generator",
		"Uint64": "draws from the shared global generator", "Uint64N": "draws from the shared global generator",
		"UintN": "draws from the shared global generator", "N": "draws from the shared global generator",
		"Float32": "draws from the shared global generator", "Float64": "draws from the shared global generator",
		"ExpFloat64": "draws from the shared global generator", "NormFloat64": "draws from the shared global generator",
		"Perm": "draws from the shared global generator", "Shuffle": "draws from the shared global generator",
	},
	"os": {
		"Getenv": "reads the ambient environment", "LookupEnv": "reads the ambient environment",
		"Environ": "reads the ambient environment", "Hostname": "reads the ambient host identity",
		"Getpid": "reads the ambient process identity", "Getppid": "reads the ambient process identity",
	},
	"runtime": {
		"NumCPU": "reads host CPU topology", "GOMAXPROCS": "reads/writes host scheduler width",
		"NumGoroutine": "reads ambient scheduler state",
	},
	"crypto/rand": {
		"Read": "draws true randomness", "Int": "draws true randomness",
		"Prime": "draws true randomness", "Text": "draws true randomness",
	},
}

func runDetwall(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := selectorPkgFunc(pass.Info, sel)
			if !ok {
				return true
			}
			if why, bad := detwallForbidden[path][name]; bad {
				pass.Reportf(sel.Pos(), "%s.%s %s — deterministic code must take time/randomness/config from the seeded substrate (annotate intentional sites: //fixd:wallclock <reason>)",
					lastPathElem(path), name, why)
			}
			return true
		})
	}
	return nil
}

func lastPathElem(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
