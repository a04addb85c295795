// Package lint is the p3qlint determinism-linter suite: eight static
// analyzers that enforce, at lint time, the ordering, clock, RNG,
// phase, telemetry, and checkpoint contracts ARCHITECTURE.md otherwise
// states only in prose. The dynamic half of the safety net — the Workers=1-vs-N
// fingerprint tests and the resume-equals-uninterrupted checkpoint tests
// — catches a determinism violation only after it is written and only on
// an exercised path; these analyzers reject the idioms that cause them
// before the code runs.
//
// The analyzers:
//
//   - maporder: no `range` over a map inside the deterministic engine
//     packages, unless annotated `//p3q:orderinvariant <reason>` (for
//     provably commutative loop bodies). The //p3q: directive system
//     itself is validated module-wide here: a stale or reasonless
//     orderinvariant annotation, an unknown verb, and a known verb used
//     outside its scope are all errors.
//   - wallclock: no time.Now/Since/Sleep and no global math/rand or
//     crypto/rand in the deterministic packages; use the virtual clock
//     and internal/randx split streams.
//   - rngdiscipline: a randx.Source that crosses into a spawned goroutine
//     must pass through .Split(label) first.
//   - stickyerr: the codec packages (internal/binio and the checkpoint,
//     trace and wire formats on it) discard no error results, and raw
//     stream I/O happens only inside internal/binio.
//   - phasepurity: functions annotated `//p3q:phase plan` (run
//     concurrently against cycle-start state) may not write through an
//     Engine-typed value; `//p3q:phase commit` functions may not draw
//     from randx.Source or range over maps; functions called from the
//     forEachIndex/forEachNode/commitSharded worker closures must carry a
//     phase annotation.
//   - snapshotcomplete: every field of a checkpointed struct (Engine,
//     Node, PersonalNetwork, Entry, QueryRun, eagerEvent, sim.EventQueue,
//     sim.Traffic, randx.Source) must be referenced on both the Snapshot
//     and the Restore path, or carry `//p3q:transient <reason>`.
//   - hotalloc: inside functions annotated `//p3q:hotpath`, allocating
//     constructs (map/slice literals, make/new, fmt calls, string
//     concatenation, interface boxing) are flagged unless excused by
//     `//p3q:alloc <reason>`.
//   - obspurity: host-plane telemetry values (anything rooted in
//     internal/hostclock or in a `//p3q:hostplane <reason>` field or
//     function) may not be written into unannotated state, steer engine
//     control flow, escape as unannotated returns, or enter the sim
//     plane of the obs registry (Inc/Add/Event/AddShardIntent).
//
// Run the suite with `go run ./cmd/p3qlint ./...` (or `make lint`).
package lint

import (
	"sort"
	"strings"

	"p3q/internal/lint/analysis"
	"p3q/internal/lint/load"
)

// DeterministicScopes lists the package paths (each covering its subtree)
// under the byte-for-byte determinism contract: everything that executes
// between a seed and an engine fingerprint. maporder, wallclock, and
// rngdiscipline only report inside these scopes.
var DeterministicScopes = []string{
	"p3q/internal/core",
	"p3q/internal/gossip",
	"p3q/internal/sim",
	"p3q/internal/experiments",
	"p3q/internal/checkpoint",
	"p3q/internal/binio",
}

// HotpathScopes lists the packages where //p3q:hotpath and //p3q:alloc
// are recognized and hotalloc reports: the deterministic engine scopes
// plus the leaf packages whose helpers the engine's plan/commit inner
// loops call directly (randx samplers, tagging digests and profile
// columns, the bloom probe, the querier's NRA round). Those leaves are not
// under the full determinism lint set — randx legitimately wraps math/rand,
// tagging sorts its own memos — but their hot helpers carry the same
// allocation budget as their callers.
var HotpathScopes = append([]string{
	"p3q/internal/randx",
	"p3q/internal/tagging",
	"p3q/internal/bloom",
	"p3q/internal/topk",
}, DeterministicScopes...)

// CarrierScope is the one package allowed raw stream I/O: the sticky-error
// carrier every binary format runs on.
const CarrierScope = "p3q/internal/binio"

// CodecScopes lists the packages under the sticky-error codec discipline
// enforced by stickyerr.
var CodecScopes = []string{
	CarrierScope,
	"p3q/internal/checkpoint",
	"p3q/internal/trace",
	"p3q/internal/wire",
}

// SnapshotScopes lists the packages that define checkpointed state:
// snapshotcomplete checks struct-field codec coverage there, and the
// //p3q:transient verb is only recognized there.
var SnapshotScopes = []string{
	"p3q/internal/core",
	"p3q/internal/sim",
	"p3q/internal/randx",
}

// inScope reports whether pkg path is one of the scopes or below one.
func inScope(path string, scopes []string) bool {
	for _, s := range scopes {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the full p3qlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{MapOrder, WallClock, RNGDiscipline, StickyErr, PhasePurity, SnapshotComplete, HotAlloc, Obspurity}
}

// Finding is one diagnostic located in a file, ready for printing.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// Check runs the analyzers over the packages and returns all findings
// sorted by file, line, column, and analyzer name.
func Check(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					Analyzer: name,
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
