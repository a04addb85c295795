package experiments

import (
	"fmt"

	"p3q/internal/baseline"
	"p3q/internal/metrics"
	"p3q/internal/sim"
	"p3q/internal/tagging"
)

// Fig5 reproduces Figure 5: the per-user storage requirement (total length
// of the stored profiles, in tagging actions) for every uniform storage
// scenario. The paper plots users in ascending order of requirement; this
// table reports the distribution percentiles plus the headline comparison
// of §3.3.1: storing 10 profiles costs a small fraction of storing the
// whole personal network (6.8% in the paper's trace, 73.6% for c=500).
func Fig5(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	full := baseline.NewFullReplication(w.DS, w.Ideal)
	cValues := cfg.UniformCValues()

	t := metrics.NewTable(
		"Figure 5 — storage requirement per user (profile actions stored)",
		"c", "min", "p25", "median", "p75", "p90", "max", "mean", "% of full")

	var fullTotal float64
	for u := 0; u < cfg.Users; u++ {
		fullTotal += float64(full.StorageActions(tagging.UserID(u)))
	}
	for _, c := range cValues {
		vals := make([]float64, cfg.Users)
		for u := range vals {
			vals[u] = float64(full.StorageActionsTopC(tagging.UserID(u), c))
		}
		ps := percentiles(vals, 0, 0.25, 0.5, 0.75, 0.90, 1)
		total := 0.0
		for _, v := range vals {
			total += v
		}
		pctOfFull := 0.0
		if fullTotal > 0 {
			pctOfFull = 100 * total / fullTotal
		}
		t.Add(metrics.I(c),
			metrics.F(ps[0], 0), metrics.F(ps[1], 0), metrics.F(ps[2], 0),
			metrics.F(ps[3], 0), metrics.F(ps[4], 0), metrics.F(ps[5], 0),
			metrics.F(total/float64(len(vals)), 1), metrics.F(pctOfFull, 1))
	}
	return []*metrics.Table{t}
}

// Fig6 reproduces Figure 6 and the query-traffic analysis of §3.3.2: the
// per-query bandwidth split into partial result lists, returned remaining
// lists and forwarded remaining lists, for the two heterogeneous scenarios.
// The paper's observations to reproduce: partial result lists dominate, and
// the lambda=4 scenario is cheaper than lambda=1 (573 KB vs 360 KB per
// query at paper scale) with far fewer partial-result messages (228 vs 70)
// because large stores resolve several profiles through a single user.
func Fig6(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	var tables []*metrics.Table
	for _, lambda := range []float64{1, 4} {
		e := w.SeededEngine(cfg.HeteroConfig(lambda))
		runs, _ := w.issue(e)
		e.RunEager(cfg.Cycles * 2)
		var fwd, ret, res, msgs []float64
		for _, qr := range runs {
			b := qr.Bytes()
			fwd = append(fwd, float64(b.Forwarded))
			ret = append(ret, float64(b.Returned))
			res = append(res, float64(b.PartialResults))
			msgs = append(msgs, float64(qr.PartialResultMessages()))
		}
		t := metrics.NewTable(
			fmt.Sprintf("Figure 6 — per-query traffic by category (lambda=%g, bytes)", lambda),
			"category", "min", "median", "p90", "max", "mean")
		addRow := func(name string, vals []float64) {
			ps := percentiles(vals, 0, 0.5, 0.9, 1)
			t.Add(name, metrics.F(ps[0], 0), metrics.F(ps[1], 0), metrics.F(ps[2], 0),
				metrics.F(ps[3], 0), metrics.F(metrics.Mean(vals), 1))
		}
		addRow("partial result lists", res)
		addRow("returned remaining lists", ret)
		addRow("forwarded remaining lists", fwd)
		addRow("partial-result messages", msgs)
		total := metrics.Mean(fwd) + metrics.Mean(ret) + metrics.Mean(res)
		t.Add("total per query (mean)", "", "", "", "", metrics.F(total, 1))
		tables = append(tables, t)
	}
	return tables
}

// Bandwidth reproduces the §3.3.2 headline numbers: the background traffic
// of the lazy mode and the burst traffic of query processing, expressed in
// Kbps using the paper's cycle lengths (1 minute per lazy cycle, 5 seconds
// per eager cycle). Paper values at full scale: 13.4 Kbps lazy background,
// 91 Kbps to answer a query within 50 seconds.
func Bandwidth(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	e := w.SeededEngine(cfg.HeteroConfig(1))

	// Lazy background: run cycles and average per-user sent bytes.
	const lazyCycleSeconds = 60.0
	before := e.Network().Total()
	lazyCycles := 5
	e.RunLazy(lazyCycles)
	lazyDiff := e.Network().Total().Since(before)
	lazyBytesPerUserCycle := float64(lazyDiff.TotalBytes()) / float64(e.Users()) / float64(lazyCycles)
	lazyKbps := lazyBytesPerUserCycle * 8 / lazyCycleSeconds / 1000

	// Eager burst: per-query traffic over the cycles it takes.
	const eagerCycleSeconds = 5.0
	runs, _ := w.issue(e)
	e.RunEager(cfg.Cycles * 2)
	var kbps, payloadKbps, seconds, msgs []float64
	for _, qr := range runs {
		cycles := qr.Cycles()
		if cycles == 0 {
			cycles = 1
		}
		dur := float64(cycles) * eagerCycleSeconds
		kbps = append(kbps, float64(qr.Bytes().All())*8/dur/1000)
		payloadKbps = append(payloadKbps, float64(qr.Bytes().Total())*8/dur/1000)
		seconds = append(seconds, dur)
		msgs = append(msgs, float64(qr.PartialResultMessages()))
	}

	t := metrics.NewTable(
		"Section 3.3.2 — bandwidth summary (lambda=1; lazy cycle 60s, eager cycle 5s)",
		"quantity", "value")
	t.Add("lazy background per user (Kbps)", metrics.F(lazyKbps, 2))
	t.Add("mean query burst incl. maintenance (Kbps)", metrics.F(metrics.Mean(kbps), 2))
	t.Add("mean query payload only (Kbps)", metrics.F(metrics.Mean(payloadKbps), 2))
	t.Add("mean query latency (seconds)", metrics.F(metrics.Mean(seconds), 1))
	t.Add("mean partial-result messages per query", metrics.F(metrics.Mean(msgs), 1))
	t.Add("probe messages (failed contacts)", metrics.U(e.Network().Total().Msgs[sim.MsgProbe]))
	return []*metrics.Table{t}
}
