package experiments

import (
	"p3q/internal/core"
	"p3q/internal/expansion"
	"p3q/internal/metrics"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// LocalOnly quantifies the §1 storage argument: "several hundreds of
// profiles are needed to return reasonable results (in the sense of [1]) in
// a system of only 10,000 users" when queries are answered purely from
// locally stored profiles, with no gossip. The table reports the recall of
// local-only processing as a function of the number of stored profiles —
// the cost P3Q's collaborative eager mode avoids.
func LocalOnly(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	t := metrics.NewTable(
		"Extension (§1 argument) — recall of local-only processing vs stored profiles",
		"stored profiles c", "avg recall (no gossip)", "% of full storage")

	cValues := append([]int{1, 2, 5}, cfg.UniformCValues()...)
	seen := make(map[int]bool)
	for _, c := range cValues {
		if c > cfg.S || seen[c] {
			continue
		}
		seen[c] = true
		e := w.SeededEngine(cfg.CoreConfig(c))
		// Cycle-0 results = local processing only (Algorithm 2 line 3).
		recall := meanRecall(w.issue(e))
		var stored, full float64
		for u := 0; u < cfg.Users; u++ {
			node := e.Node(tagging.UserID(u))
			for i, nb := range w.Ideal[u] {
				l := float64(w.DS.Profiles[nb.ID].Len())
				full += l
				if i < node.PersonalNetwork().C() {
					stored += l
				}
			}
		}
		pct := 0.0
		if full > 0 {
			pct = 100 * stored / full
		}
		t.Add(metrics.I(c), metrics.F(recall, 3), metrics.F(pct, 1))
	}
	return []*metrics.Table{t}
}

// Expansion evaluates the personalized query expansion extension (§1/§4 of
// the paper): each querier issues only the first tag of her query, with and
// without expansion from her locally known profiles, and both are scored
// against the full-query centralized reference.
func Expansion(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	t := metrics.NewTable(
		"Extension (§4) — personalized query expansion on truncated queries",
		"variant", "avg recall vs full-query reference")

	type variant struct {
		name   string
		expand bool
	}
	for _, v := range []variant{{"bare single-tag query", false}, {"expanded (+3 suggested tags)", true}} {
		// An engine per variant keeps the query registries separate.
		ve := w.SeededEngine(cfg.CoreConfig(10))
		var runs []*core.QueryRun
		var refs [][]topk.Entry
		for _, q := range w.Queries {
			if len(q.Tags) < 2 {
				continue // nothing to truncate
			}
			issued := trace.Query{Querier: q.Querier, Tags: q.Tags[:1]}
			if v.expand {
				x := expansion.New(ve.Node(q.Querier).KnownProfiles())
				issued.Tags = x.Expand(issued.Tags, 3)
			}
			if qr := ve.IssueQuery(issued); qr != nil {
				runs = append(runs, qr)
				refs = append(refs, w.Central.TopK(q))
			}
		}
		ve.RunEager(cfg.Cycles * 3)
		t.Add(v.name, metrics.F(meanRecall(runs, refs), 3))
	}
	return []*metrics.Table{t}
}

// Ablations prints the ablations of the paper's Algorithms 1, 3 and 4 as a
// table (the bench targets report the same numbers under go test -bench).
func Ablations(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	t := metrics.NewTable("Extension — design ablations (Alg. 1, 3, 4)",
		"design choice", "with (paper)", "without (naive)", "unit")

	// 3-step exchange vs shipping advertised profiles in full.
	e := w.SeededEngine(cfg.CoreConfig(10))
	lazyCycles := 5
	e.RunLazy(lazyCycles)
	actual := float64(e.Network().Total().TotalBytes()) / float64(e.Users()) / float64(lazyCycles)
	naive := float64(e.NaiveExchangeBytes()) / float64(e.Users()) / float64(lazyCycles)
	t.Add("3-step profile exchange (Alg. 1)",
		metrics.F(actual, 0), metrics.F(naive, 0), "bytes/user/cycle")

	// Eager destination bias vs uniform random destinations.
	cyclesFor := func(disable bool) float64 {
		cc := cfg.CoreConfig(10)
		cc.DisableEagerBias = disable
		ve := w.SeededEngine(cc)
		runs, _ := w.issue(ve)
		ve.RunEager(cfg.Cycles * 3)
		var cs []float64
		for _, qr := range runs {
			cs = append(cs, float64(qr.Cycles()))
		}
		return metrics.Mean(cs)
	}
	t.Add("eager bias to personal network (Alg. 3)",
		metrics.F(cyclesFor(false), 1), metrics.F(cyclesFor(true), 1), "cycles/query")

	// Incremental NRA vs per-cycle recomputation: entries scanned.
	lists := sampleLists(w, 20)
	n := topk.NewNRA(cfg.K)
	for _, l := range lists {
		n.Run([][]topk.Entry{l})
	}
	rescan := 0
	for i := range lists {
		for j := 0; j <= i; j++ {
			rescan += len(lists[j])
		}
	}
	t.Add("incremental NRA (Alg. 4)",
		metrics.I(n.ScannedEntries()), metrics.I(rescan), "entries scanned")
	return []*metrics.Table{t}
}

// sampleLists builds a stream of realistic partial result lists.
func sampleLists(w *World, n int) [][]topk.Entry {
	var lists [][]topk.Entry
	for i := 0; i < n && i < len(w.Queries); i++ {
		q := w.Queries[i]
		entries := w.Central.TopKOverNetwork(trace.Query{Querier: q.Querier, Tags: q.Tags}, nil)
		if len(entries) > 0 {
			lists = append(lists, entries)
		}
	}
	return lists
}
