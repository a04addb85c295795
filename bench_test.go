// Benchmarks regenerating every table and figure of the paper's evaluation
// (§3) at a reduced scale (one per artifact; `p3qsim -exp list` is the
// index), ablation benches for the design choices of Algorithms 1, 3 and 4,
// and a few engine benches at 5k and 100k users.
//
// Run them all with:
//
//	go test -bench=. -benchmem
//
// These are ride-along benches with no tooling of their own: CI runs each
// once so they keep compiling, and speed or allocation claims are made on
// bench/ + BENCHMARK.json (see bench/README.md), which owns the 5k lazy and
// eager cycle measurements. Bench output measures the cost of regenerating
// each artifact; the artifact values themselves are printed by cmd/p3qsim.
package p3q_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"p3q"
	"p3q/internal/analysis"
	"p3q/internal/core"
	"p3q/internal/experiments"
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// benchCfg is the reduced scale used by the artifact benches.
func benchCfg() experiments.Config {
	return experiments.Config{
		Users:     120,
		S:         20,
		K:         10,
		MeanItems: 18,
		Queries:   25,
		Cycles:    8,
		Seed:      99,
	}
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	r, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("experiment %s not registered", name)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := r.Run(cfg)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", name)
		}
	}
}

func BenchmarkTable1StorageDistribution(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig2Convergence(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkFig3AlphaSweep(b *testing.B)            { benchExperiment(b, "fig3") }
func BenchmarkFig4StorageSweep(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5Storage(b *testing.B)               { benchExperiment(b, "fig5") }
func BenchmarkFig6QueryBandwidth(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkTable2ProfileChanges(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkFig7AURLazy(b *testing.B)               { benchExperiment(b, "fig7a") }
func BenchmarkFig7bAURHetero(b *testing.B)            { benchExperiment(b, "fig7b") }
func BenchmarkFig8UsersReached(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9AUREager(b *testing.B)              { benchExperiment(b, "fig9") }
func BenchmarkFig10NeighbourDiscovery(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11Churn(b *testing.B)                { benchExperiment(b, "fig11a") }
func BenchmarkFig11cIncompleteQueries(b *testing.B)   { benchExperiment(b, "fig11c") }
func BenchmarkTheoryRAlpha(b *testing.B)              { benchExperiment(b, "theory") }
func BenchmarkBandwidthSummary(b *testing.B)          { benchExperiment(b, "bandwidth") }

// --- Ablation benches (Algorithms 1, 3 and 4 of the paper) ---

// benchWorld builds a seeded engine world for the ablations.
func benchWorld(b *testing.B, mutate func(*core.Config)) (*p3q.Dataset, *p3q.Engine) {
	b.Helper()
	params := p3q.DefaultTraceParams(120)
	params.MeanItems = 18
	params.Seed = 99
	ds := p3q.GenerateTrace(params)
	cfg := p3q.DefaultConfig()
	cfg.S, cfg.C = 20, 5
	if mutate != nil {
		mutate(&cfg)
	}
	// Digest geometry proportional to the reduced profile sizes (the
	// paper's 20 Kbit digests are sized for ~249-item profiles).
	cfg.BloomBits, cfg.BloomHashes = 2048, 6
	e := p3q.NewEngine(ds, cfg)
	e.SeedIdealNetworks(p3q.IdealNetworks(ds, cfg.S))
	return ds, e
}

// BenchmarkAblationThreeStepExchange quantifies the 3-step profile exchange
// of Algorithm 1 against naively shipping every advertised profile: it runs
// lazy cycles and reports actual vs hypothetical bytes per cycle.
func BenchmarkAblationThreeStepExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, e := benchWorld(b, nil)
		e.RunLazy(5)
		actual := e.Network().Total().TotalBytes()
		naive := e.NaiveExchangeBytes()
		if naive == 0 {
			b.Fatal("no exchanges happened")
		}
		b.ReportMetric(float64(actual)/float64(e.Users())/5, "actualB/user/cycle")
		b.ReportMetric(float64(naive)/float64(e.Users())/5, "naiveB/user/cycle")
	}
}

// BenchmarkAblationBloomDigest compares the Bloom digest against an exact
// item-list digest at the paper's profile scale (mean 249 items per user):
// the 20 Kbit filter undercuts exact 16-byte item hashes there, while small
// profiles would be cheaper to ship exactly — the design choice only pays
// off for realistic tagging histories.
func BenchmarkAblationBloomDigest(b *testing.B) {
	params := p3q.DefaultTraceParams(300)
	params.MeanItems = 249 // the crawl's mean (§3.3.1)
	params.Seed = 99
	ds := p3q.GenerateTrace(params)
	cfg := p3q.DefaultConfig()
	bloomBytes := cfg.BloomBits / 8
	for i := 0; i < b.N; i++ {
		exact, bloomTotal := 0, 0
		for _, p := range ds.Profiles {
			exact += p.NumItems() * 16 // exact item hashes
			bloomTotal += bloomBytes
		}
		b.ReportMetric(float64(exact)/float64(ds.Users()), "exactB/digest")
		b.ReportMetric(float64(bloomTotal)/float64(ds.Users()), "bloomB/digest")
	}
}

// BenchmarkAblationEagerBias compares the eager destination bias (prefer
// personal-network members, Algorithm 3 lines 4-6) against uniform random
// destinations: completion cycles per query.
func BenchmarkAblationEagerBias(b *testing.B) {
	run := func(disable bool) float64 {
		ds, e := benchWorld(b, func(cfg *core.Config) { cfg.DisableEagerBias = disable })
		queries := p3q.GenerateQueries(ds, 3)[:20]
		for _, q := range queries {
			e.IssueQuery(q)
		}
		e.RunEager(60)
		total := 0.0
		for _, qr := range e.Queries() {
			total += float64(qr.Cycles())
		}
		return total / float64(len(queries))
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "cycles/query(biased)")
		b.ReportMetric(run(true), "cycles/query(random)")
	}
}

// BenchmarkAblationNRAIncremental compares the incremental NRA of
// Algorithm 4 against recomputing the exact aggregation from scratch every
// cycle, on the same stream of partial result lists.
func BenchmarkAblationNRAIncremental(b *testing.B) {
	// Build a realistic stream of partial lists from a real query.
	ds, e := benchWorld(b, nil)
	q, _ := p3q.QueryFor(ds, 0, 1)
	qr := e.IssueQuery(q)
	e.RunEager(60)
	if !qr.Done() {
		b.Fatal("query did not complete")
	}
	// Synthesize an equivalent batch stream.
	var lists [][]topk.Entry
	central := p3q.NewCentralized(ds, 20, 10)
	for u := 0; u < 30; u++ {
		entries := central.TopKOverNetwork(trace.Query{Querier: p3q.UserID(u), Tags: q.Tags}, nil)
		if len(entries) > 0 {
			lists = append(lists, entries)
		}
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := topk.NewNRA(10)
			for _, l := range lists {
				n.Run([][]topk.Entry{l})
			}
			// NRA's native cost metric: entries scanned before the early
			// stop, out of the total available (the whole point of the
			// algorithm is keeping this fraction below 1).
			b.ReportMetric(float64(n.ScannedEntries()), "scanned")
			b.ReportMetric(float64(n.TotalEntries()), "available")
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var acc [][]topk.Entry
			scanned := 0
			for _, l := range lists {
				acc = append(acc, l)
				sum := map[p3q.ItemID]int{}
				for _, a := range acc {
					for _, e := range a {
						sum[e.Item] += e.Score
					}
					scanned += len(a)
				}
				es := make([]topk.Entry, 0, len(sum))
				for it, sc := range sum {
					es = append(es, topk.Entry{Item: it, Score: sc})
				}
				topk.SortEntries(es)
			}
			b.ReportMetric(float64(scanned), "scanned")
		}
	})
}

// BenchmarkNRARun times the querier's operator alone on what one query of
// the 5k trace brings home: the partial result lists of a 50-member ideal
// network (the first generated query every member answers), delivered one
// list per Run — the round-heavy schedule of positive latencies — and as a
// single batch. ns/op is one whole query, Drain included.
func BenchmarkNRARun(b *testing.B) {
	ds := lazyBenchDataset(b)
	ix := similarity.Build(ds)
	var lists [][]topk.Entry
	for _, q := range p3q.GenerateQueries(ds, 11) {
		lists = lists[:0]
		for _, m := range ix.TopNeighbours(ds.Profiles[q.Querier], 50) {
			snap := []tagging.Snapshot{ds.Profiles[m.ID].Snapshot()}
			if l := topk.PartialList(snap, topk.NewTagSet(q.Tags)); len(l) > 0 {
				lists = append(lists, l)
			}
		}
		if len(lists) == 50 {
			break
		}
	}
	if len(lists) != 50 {
		b.Fatalf("no query with 50 non-empty partial lists (last had %d)", len(lists))
	}
	run := func(b *testing.B, batch int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := topk.NewNRA(10)
			for at := 0; at < len(lists); at += batch {
				n.Run(lists[at:min(at+batch, len(lists))])
			}
			n.Drain()
		}
	}
	b.Run("list-per-run", func(b *testing.B) { run(b, 1) })
	b.Run("one-batch", func(b *testing.B) { run(b, len(lists)) })
}

// BenchmarkAnalysisRAlpha measures the closed-form evaluation itself.
func BenchmarkAnalysisRAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, a := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
			analysis.RAlpha(a, 990, 10)
		}
	}
}

// BenchmarkEagerCycle measures the protocol's per-cycle cost with a live
// query load.
func BenchmarkEagerCycle(b *testing.B) {
	ds, e := benchWorld(b, nil)
	for _, q := range p3q.GenerateQueries(ds, 3)[:20] {
		e.IssueQuery(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EagerCycle()
	}
}

// BenchmarkLazyCycle measures the maintenance cost per lazy cycle.
func BenchmarkLazyCycle(b *testing.B) {
	_, e := benchWorld(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LazyCycle()
	}
}

// --- Parallel lazy-mode benches (plan/commit engine) ---

// lazyBenchData memoizes the large-population trace so every worker-count
// sub-bench measures the engine, not the generator. Sharing the dataset is
// safe: lazy cycles never mutate profiles.
var lazyBenchData struct {
	sync.Once
	ds *p3q.Dataset
}

func lazyBenchDataset(b *testing.B) *p3q.Dataset {
	b.Helper()
	lazyBenchData.Do(func() {
		params := p3q.DefaultTraceParams(5000)
		params.MeanItems = 20
		params.Seed = 7
		lazyBenchData.ds = p3q.GenerateTrace(params)
	})
	return lazyBenchData.ds
}

// lazyWorkerCounts returns the worker counts worth comparing on this
// machine: sequential, all cores, and a mid point, deduplicated.
func lazyWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		if n > 3 {
			counts = append(counts, n/2)
		}
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkLazyChurn5k times lazy cycles over the 5000-user population under
// 30% departures, the regime where probe retries and view healing shift
// work between the planning and commit phases. The engine is byte-for-byte
// deterministic in Workers, so every sub-bench performs the same protocol
// work and the per-op times compare wall clock directly.
func BenchmarkLazyChurn5k(b *testing.B) {
	for _, workers := range lazyWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ds := lazyBenchDataset(b)
			cfg := p3q.DefaultConfig()
			cfg.S, cfg.C = 50, 10
			cfg.BloomBits, cfg.BloomHashes = 2048, 6
			cfg.Workers = workers
			cfg.Seed = 7
			e := p3q.NewEngine(ds, cfg)
			e.Bootstrap()
			e.RunLazy(2)
			e.Kill(0.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.LazyCycle()
			}
		})
	}
}

// lazyBench100kData memoizes the 100k-user trace separately from the 5k
// one: building it costs real time and memory, so it is only paid when the
// 100k bench actually runs.
var lazyBench100kData struct {
	sync.Once
	ds *p3q.Dataset
}

func lazyBench100kDataset(b *testing.B) *p3q.Dataset {
	b.Helper()
	lazyBench100kData.Do(func() {
		params := p3q.DefaultTraceParams(100000)
		params.MeanItems = 20
		params.Seed = 7
		lazyBench100kData.ds = p3q.GenerateTrace(params)
	})
	return lazyBench100kData.ds
}

// BenchmarkLazyConvergence100k is the million-node scaling probe: one lazy
// cycle over a 100,000-user population, 20x the engine-lazy-5k workload of
// bench/. The pooled plan slots and dense hot-state layouts are sized to
// keep allocation per node flat between the two scales — B/op ÷ 100000
// here against core.alloc_bytes_per_node_cycle there; a superlinear rise
// means a per-node cost snuck back into the cycle path.
//
// It is skipped under -short so the per-commit CI pass (which runs every
// bench once) stays fast.
func BenchmarkLazyConvergence100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k population bench skipped in -short mode")
	}
	for _, workers := range lazyWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ds := lazyBench100kDataset(b)
			cfg := p3q.DefaultConfig()
			cfg.S, cfg.C = 50, 10
			cfg.BloomBits, cfg.BloomHashes = 2048, 6
			cfg.Workers = workers
			cfg.Seed = 7
			e := p3q.NewEngine(ds, cfg)
			e.Bootstrap()
			e.RunLazy(1) // one warm-up cycle: enough to leave the cold start
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.LazyCycle()
			}
		})
	}
}
