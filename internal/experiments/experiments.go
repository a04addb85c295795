// Package experiments regenerates every table and figure of the paper's
// evaluation (§3). Each experiment is a named Runner producing one or more
// printable tables whose rows correspond to the points of the paper's plot
// (or the cells of its table).
//
// Experiments default to a laptop scale (hundreds of users, s in the tens)
// that preserves the qualitative shapes of the paper's results — who wins,
// where curves saturate, how parameters order — while running in seconds.
// Every scale knob can be raised to the paper's values (10,000 users,
// s=1000) through Config.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"p3q/internal/baseline"
	"p3q/internal/bloom"
	"p3q/internal/core"
	"p3q/internal/metrics"
	"p3q/internal/randx"
	"p3q/internal/sim"
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// Config scales an experiment run. The zero value is not useful; start from
// Default.
type Config struct {
	// Users is the population size (paper: 10,000).
	Users int
	// S is the personal network size (paper: 1000).
	S int
	// K is the top-k size (paper: 10).
	K int
	// MeanItems is the mean number of distinct items per user in the
	// generated trace (paper's crawl: 249).
	MeanItems float64
	// Queries caps the number of queries evaluated per scenario
	// (0 = one per user, as in the paper).
	Queries int
	// Cycles is the default number of protocol cycles for per-cycle
	// figures; individual experiments scale it to their paper counterpart.
	Cycles int
	// Workers is the engine worker count for the parallel planning phases
	// of both modes (0 = all cores). Every value produces identical
	// tables; Workers only changes how fast they are regenerated.
	Workers int
	// Latency models per-message delivery delay in the eager mode (nil =
	// zero delay, the paper's synchronous rounds). Set through the p3qsim
	// -latency flag (sim.ParseLatency specs); the dedicated "latency"
	// experiment sweeps its own models regardless of this field.
	Latency sim.LatencyModel
	// Seed drives all randomness.
	Seed uint64
}

// Default returns the laptop-scale configuration used by the test suite
// and the quickstart instructions.
func Default() Config {
	return Config{
		Users:     400,
		S:         50,
		K:         10,
		MeanItems: 30,
		Queries:   150,
		Cycles:    20,
		Seed:      42,
	}
}

// ScaledClass maps a paper storage class (defined against s=1000) onto the
// configured s, preserving the class-to-network proportions: at s=1000 the
// classes are exactly the paper's {10, 20, 50, 100, 200, 500, 1000}; at
// s=50 they become {1, 1, 3, 5, 10, 25, 50}.
func (c Config) ScaledClass(class int) int {
	v := int(math.Round(float64(class) * float64(c.S) / 1000))
	if v < 1 {
		v = 1
	}
	if v > c.S {
		v = c.S
	}
	return v
}

// UniformCValues returns the uniform storage scenarios of §3.1.2 (c in
// {10, 20, 50, 100, 200, 500, 1000}) restricted to c <= s.
func (c Config) UniformCValues() []int {
	var out []int
	for _, v := range randx.StorageClasses {
		if v <= c.S {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = []int{c.S}
	}
	return out
}

// Workload generates the configuration's trace and its query workload
// (capped at Queries). It is the one derivation of the data: the harness's
// worlds and cmd/p3qsim's converge driver both start here, so a converge
// checkpoint restores over the same trace.
func (c Config) Workload() (*trace.Dataset, []trace.Query) {
	p := trace.DefaultGenParams(c.Users)
	p.MeanItems = c.MeanItems
	p.Seed = c.Seed
	ds := trace.Generate(p)
	queries := trace.GenerateQueries(ds, c.Seed+1)
	if c.Queries > 0 && c.Queries < len(queries) {
		queries = queries[:c.Queries]
	}
	return ds, queries
}

// World bundles the dataset, its ideal networks, the centralized baseline
// and the query workload — everything experiments share. A runner builds
// one world and every row reads it, unless a row applies a change-set to
// the dataset (Figures 7 and 10), in which case each row gets its own.
type World struct {
	Cfg     Config
	DS      *trace.Dataset
	Ideal   [][]similarity.Neighbour
	Central *baseline.Centralized
	Queries []trace.Query
}

// NewWorld generates the workload for a configuration.
func NewWorld(cfg Config) *World {
	ds, queries := cfg.Workload()
	ideal := similarity.IdealNetworks(ds, cfg.S)
	return &World{
		Cfg:     cfg,
		DS:      ds,
		Ideal:   ideal,
		Central: baseline.NewCentralizedWithNets(ds, ideal, cfg.K),
		Queries: queries,
	}
}

// ScaledBloomBits returns the paper's 20 Kbit digest geometry scaled to the
// configured mean profile size (the crawl's mean is 249 items/user): at
// paper scale it is exactly 20 Kbit; smaller traces get proportionally
// smaller digests so byte ratios between digests and profiles stay
// representative. The result is clamped to at least 1024 bits.
func (c Config) ScaledBloomBits() int {
	bits := int(float64(bloom.DefaultBits) * c.MeanItems / 249)
	if bits < 1024 {
		bits = 1024
	}
	return (bits + 63) / 64 * 64
}

// DigestCap returns the paper's 50-digest advertisement bound scaled to s.
// The cap is the mechanism behind Figure 7's "large stores stay stale"
// effect (a node with c=500 advertises only 50 random replicas per
// exchange); scaling it with s preserves the cap-to-store ratios at reduced
// scale. At s=1000 it is exactly the paper's 50.
func (c Config) DigestCap() int {
	v := int(math.Round(50 * float64(c.S) / 1000))
	if v < 2 {
		v = 2
	}
	return v
}

// CoreConfig builds a protocol configuration with uniform storage c. It is
// the single source of the engine parameters every harness derives from an
// experiments configuration — cmd/p3qsim's converge driver builds through
// it too, so checkpoints written by one harness restore in the other.
func (c Config) CoreConfig(storageC int) core.Config {
	cc := core.DefaultConfig()
	cc.S = c.S
	cc.C = storageC
	cc.K = c.K
	cc.Seed = c.Seed
	cc.MaxDigestsPerGossip = c.DigestCap()
	cc.BloomBits = c.ScaledBloomBits()
	cc.Workers = c.Workers
	cc.Latency = c.Latency
	return cc
}

// HeteroConfig is CoreConfig with Poisson-distributed storage capacities
// (Table 1), scaled to s via ScaledClass; CAssign overrides the uniform c.
func (c Config) HeteroConfig(lambda float64) core.Config {
	cc := c.CoreConfig(core.DefaultConfig().C)
	rng := randx.NewSource(c.Seed).Split(uint64(lambda * 1000))
	raw := rng.AssignStorage(c.Users, lambda, randx.TailModeFor(lambda))
	cc.CAssign = make([]int, len(raw))
	for i, v := range raw {
		cc.CAssign[i] = c.ScaledClass(v)
	}
	return cc
}

// SeededEngine builds an engine starting from converged (ideal) personal
// networks, the setup of the eager-mode experiments (§3.2.2 onwards).
func (w *World) SeededEngine(cc core.Config) *core.Engine {
	e := core.New(w.DS, cc)
	e.SeedIdealNetworks(w.Ideal)
	return e
}

// issue issues the world's queries on e and returns the runs that started
// (a departed querier's query does not), each with its centralized
// reference: the items the querier's whole ideal network provides.
func (w *World) issue(e *core.Engine) (runs []*core.QueryRun, refs [][]topk.Entry) {
	for _, q := range w.Queries {
		if qr := e.IssueQuery(q); qr != nil {
			runs = append(runs, qr)
			refs = append(refs, w.Central.TopK(q))
		}
	}
	return runs, refs
}

// meanRecall is the average recall of the runs against their references.
func meanRecall(runs []*core.QueryRun, refs [][]topk.Entry) float64 {
	vals := make([]float64, len(runs))
	for i, qr := range runs {
		vals[i] = topk.Recall(qr.Results(), refs[i])
	}
	return metrics.Mean(vals)
}

// RecallCurve issues the world's queries on the engine and returns the
// average recall (against the centralized baseline) at the end of each
// eager cycle; index 0 is the purely local result of Algorithm 2 line 3.
func (w *World) RecallCurve(e *core.Engine, cycles int) []float64 {
	runs, refs := w.issue(e)
	curve := []float64{meanRecall(runs, refs)}
	for i := 0; i < cycles; i++ {
		e.EagerCycle()
		curve = append(curve, meanRecall(runs, refs))
	}
	return curve
}

// lazyCurve samples measure before the first lazy cycle and after every
// step-th of cycles lazy cycles.
func lazyCurve(e *core.Engine, cycles, step int, measure func() float64) []float64 {
	curve := []float64{measure()}
	for cyc := 1; cyc <= cycles; cyc++ {
		e.LazyCycle()
		if cyc%step == 0 {
			curve = append(curve, measure())
		}
	}
	return curve
}

// steps returns the cycles a curve sampled every step-th of cycles holds:
// 0, step, 2·step, … up to cycles.
func steps(cycles, step int) []int {
	var out []int
	for cyc := 0; cyc <= cycles; cyc += step {
		out = append(out, cyc)
	}
	return out
}

// curveTable lays curves out as a table: a "cycle" column holding the
// sampled cycles, then one column per curve under its label.
func curveTable(title string, labels []string, cycles []int, curves [][]float64, prec int) *metrics.Table {
	t := metrics.NewTable(title, append([]string{"cycle"}, labels...)...)
	for i, cyc := range cycles {
		row := []string{metrics.I(cyc)}
		for _, curve := range curves {
			row = append(row, metrics.F(curve[i], prec))
		}
		t.Add(row...)
	}
	return t
}

// labels formats one column label per parameter value.
func labels[T any](format string, values []T) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// Runner is a named experiment producing the paper's rows.
type Runner struct {
	Name  string // experiment id, e.g. "fig3"
	Paper string // what it reproduces
	Run   func(cfg Config) []*metrics.Table
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"table1", "Table 1: distribution of c under Poisson lambda=1/4", Table1},
		{"fig2", "Figure 2: personal network convergence speed", Fig2},
		{"fig3", "Figure 3: recall vs cycles for alpha sweep (c=10)", Fig3},
		{"fig4", "Figure 4: recall vs cycles for c sweep (alpha=0.5)", Fig4},
		{"fig5", "Figure 5: per-user storage requirement", Fig5},
		{"fig6", "Figure 6: per-query bandwidth by category (lambda=1)", Fig6},
		{"table2", "Table 2: influence of profile changes", Table2},
		{"fig7a", "Figure 7a: AUR in lazy mode, uniform c", Fig7a},
		{"fig7b", "Figure 7b: AUR in lazy mode, lambda=1 vs lambda=4", Fig7b},
		{"fig8", "Figure 8: users reached per query", Fig8},
		{"fig9", "Figure 9: AUR of reached users in eager mode", Fig9},
		{"fig10", "Figure 10: new-neighbour discovery in lazy mode", Fig10},
		{"fig11a", "Figure 11a: recall under churn (lambda=1)", Fig11a},
		{"fig11b", "Figure 11b: recall under churn (lambda=4)", Fig11b},
		{"fig11c", "Figure 11c: queries unable to reach full recall", Fig11c},
		{"theory", "Theorems 2.1-2.4: R(alpha) and bounds", Theory},
		{"bandwidth", "Section 3.3.2: lazy/eager bandwidth summary", Bandwidth},
		{"timeline", "Section 3.5: query timeline in simulated wall-clock time", Timeline},
		{"latency", "Extension: asynchronous eager delivery — time-to-first-result and time-to-full-recall under per-message latency models", Latency},
		{"localonly", "Extension: local-only recall vs stored profiles (the §1 argument)", LocalOnly},
		{"expansion", "Extension: personalized query expansion (§4)", Expansion},
		{"ablations", "Extension: design-choice ablations (Alg. 1, 3, 4)", Ablations},
	}
}

// Lookup finds a runner by name.
func Lookup(name string) (Runner, bool) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// percentiles returns the values at the given quantiles of a copy of xs.
func percentiles(xs []float64, qs ...float64) []float64 {
	if len(xs) == 0 {
		return make([]float64, len(qs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		idx := int(q * float64(len(s)-1))
		out[i] = s[idx]
	}
	return out
}

// changedVersions applies a change-set and returns each changed user's
// post-change profile version (the target replicas must reach to count as
// updated).
func changedVersions(ds *trace.Dataset, changes []trace.Change) map[tagging.UserID]int {
	target := make(map[tagging.UserID]int, len(changes))
	for _, c := range changes {
		c.Apply(ds)
		target[c.User] = ds.Profiles[c.User].Version()
	}
	return target
}

// engineAUR computes the average update rate over the given node IDs (all
// nodes when ids is nil), considering only users with at least one stored
// replica subject to change.
func engineAUR(e *core.Engine, ids []tagging.UserID, target map[tagging.UserID]int) float64 {
	if ids == nil {
		ids = make([]tagging.UserID, e.Users())
		for i := range ids {
			ids[i] = tagging.UserID(i)
		}
	}
	var vals []float64
	for _, u := range ids {
		var stored []metrics.Replica
		for _, entry := range e.Node(u).PersonalNetwork().StoredEntries() {
			stored = append(stored, metrics.Replica{Owner: entry.ID, Version: entry.Stored.Version()})
		}
		if r, ok := metrics.UpdateRate(stored, target); ok {
			vals = append(vals, r)
		}
	}
	return metrics.Mean(vals)
}

// scaledChangeParams mirrors the paper's simulated day (§3.4.1: 1540 of
// 10,000 users change, avg 8 new actions, max 268) at the configured scale.
func scaledChangeParams(cfg Config) trace.ChangeParams {
	p := trace.DefaultChangeParams()
	p.Seed = cfg.Seed + 77
	return p
}
