package lint

import (
	"go/ast"
	"go/types"
)

// WallClock flags reads of host time and global process-wide randomness in
// the deterministic engine packages. Simulation time must come from the
// virtual clock (Engine.Now / the event queue), and all randomness from
// internal/randx split streams, or identical seeds stop producing identical
// fingerprints. Wall-clock profiling that never feeds engine state belongs
// in internal/hostclock, which exists to make that exception explicit and
// searchable.
var WallClock = &Analyzer{Name: "wallclock", Run: runWallClock}

// bannedTime are the time-package functions that read or wait on the host
// clock. Types and constants (time.Duration, time.Second) stay allowed:
// they carry durations without observing the host.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// bannedGlobalRand are the math/rand (and v2) package-level functions
// backed by the shared global generator. Constructors taking an explicit
// source (New, NewSource, NewZipf, ...) stay allowed: internal/randx feeds
// them deterministic state.
var bannedGlobalRand = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"IntN": true, "UintN": true, "Uint32N": true, "Uint64N": true, "N": true,
	"Float32": true, "Float64": true, "Perm": true, "Shuffle": true,
	"ExpFloat64": true, "NormFloat64": true, "Read": true,
}

func runWallClock(pass *Pass) {
	if !inScope(pass.Path, DeterministicScopes) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch pkgName.Imported().Path() {
			case "time":
				if bannedTime[name] {
					pass.Reportf(sel.Pos(), "time.%s reads the host clock in deterministic package %s: use the virtual clock (Engine.Now / event time), or internal/hostclock for profiling that never feeds engine state", name, pass.Path)
				}
			case "math/rand", "math/rand/v2":
				if bannedGlobalRand[name] {
					pass.Reportf(sel.Pos(), "global rand.%s draws from process-wide state in deterministic package %s: draw from an internal/randx split stream instead", name, pass.Path)
				}
			case "crypto/rand":
				pass.Reportf(sel.Pos(), "crypto/rand is nondeterministic by design: derive randomness from internal/randx split streams in package %s", pass.Path)
			}
			return true
		})
	}
}
