package experiments

import (
	"fmt"

	"p3q/internal/core"
	"p3q/internal/metrics"
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// Table2 reproduces Table 2: for every uniform storage scenario, how a
// day's worth of profile changes impacts the stored replicas — the fraction
// of users having at least one stored profile to update, and the average
// and maximum number of replicas to update. It only depends on the ideal
// networks and the change-set, exactly as in the paper.
func Table2(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	changes := trace.GenerateChanges(w.DS, scaledChangeParams(cfg))
	changed := make(map[tagging.UserID]bool, len(changes))
	for _, c := range changes {
		changed[c.User] = true
	}

	t := metrics.NewTable(
		fmt.Sprintf("Table 2 — influence of profile changes (%d of %d users changed)",
			len(changes), cfg.Users),
		"c", "% users having to update", "avg profiles to update", "max profiles to update")
	for _, c := range cfg.UniformCValues() {
		usersAffected, totalToUpdate, maxToUpdate := 0, 0, 0
		for u := 0; u < cfg.Users; u++ {
			limit := c
			if limit > len(w.Ideal[u]) {
				limit = len(w.Ideal[u])
			}
			n := 0
			for _, nb := range w.Ideal[u][:limit] {
				if changed[nb.ID] {
					n++
				}
			}
			if n > 0 {
				usersAffected++
				totalToUpdate += n
				if n > maxToUpdate {
					maxToUpdate = n
				}
			}
		}
		avg := 0.0
		if usersAffected > 0 {
			avg = float64(totalToUpdate) / float64(usersAffected)
		}
		t.Add(metrics.I(c),
			metrics.F(100*float64(usersAffected)/float64(cfg.Users), 1),
			metrics.F(avg, 1), metrics.I(maxToUpdate))
	}
	return []*metrics.Table{t}
}

// Fig7a reproduces Figure 7(a): the average update rate of stored replicas
// over lazy cycles after a simultaneous profile change, for the uniform
// storage scenarios. The paper's observation to reproduce: small stores
// stay fresh (AUR near 1 within tens of cycles for c=10/20) while large
// stores lag.
func Fig7a(cfg Config) []*metrics.Table {
	return []*metrics.Table{aurLazyCurves(cfg, "Figure 7a — AUR vs lazy cycles (uniform c)",
		"c=%d", cfg.UniformCValues(), cfg.CoreConfig)}
}

// Fig7b reproduces Figure 7(b): the same curves for the heterogeneous
// scenarios; lambda=1 (mostly small stores) stays fresher than lambda=4.
func Fig7b(cfg Config) []*metrics.Table {
	return []*metrics.Table{aurLazyCurves(cfg, "Figure 7b — AUR vs lazy cycles (heterogeneous)",
		"l=%g", []float64{1, 4}, cfg.HeteroConfig)}
}

// aurLazyCurves runs the shared harness of Figure 7: seed converged
// networks, apply the change-set, run lazy cycles, sample the AUR. Each
// scenario gets a fresh world so all curves start from the same base state.
func aurLazyCurves[P any](cfg Config, title, label string, params []P, configFor func(P) core.Config) *metrics.Table {
	cycles := cfg.Cycles * 2
	step := max(cycles/10, 1)
	curves := make([][]float64, len(params))
	for pi, param := range params {
		pw := NewWorld(cfg)
		e := pw.SeededEngine(configFor(param))
		target := changedVersions(pw.DS, trace.GenerateChanges(pw.DS, scaledChangeParams(cfg)))
		curves[pi] = lazyCurve(e, cycles, step, func() float64 { return engineAUR(e, nil, target) })
	}
	return curveTable(title, labels(label, params), steps(cycles, step), curves, 3)
}

// Fig8 reproduces Figure 8: the number of users reached by each query in
// the heterogeneous scenarios. The paper's observation to reproduce:
// queries in lambda=1 reach several times more users than in lambda=4
// (256 vs 75 on average at paper scale) because small stores resolve fewer
// profiles per gossip.
func Fig8(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	t := metrics.NewTable("Figure 8 — users reached by a query",
		"lambda", "min", "median", "p90", "max", "mean")
	for _, lambda := range []float64{1, 4} {
		e := w.SeededEngine(cfg.HeteroConfig(lambda))
		runs, _ := w.issue(e)
		e.RunEager(cfg.Cycles * 2)
		var reached []float64
		for _, qr := range runs {
			reached = append(reached, float64(qr.UsersReached()))
		}
		ps := percentiles(reached, 0, 0.5, 0.9, 1)
		t.Add(fmt.Sprintf("%g", lambda),
			metrics.F(ps[0], 0), metrics.F(ps[1], 0), metrics.F(ps[2], 0),
			metrics.F(ps[3], 0), metrics.F(metrics.Mean(reached), 1))
	}
	return []*metrics.Table{t}
}

// Fig9 reproduces Figure 9: the average update rate over the users reached
// by queries, as one user issues consecutive queries with no lazy cycle in
// between. The paper's observation to reproduce: the eager mode alone
// refreshes a significant share of the reached users' replicas, with
// diminishing returns as the reachable fresh versions are exhausted
// ("all the changes are not taken into account only relying on the eager
// mode").
func Fig9(cfg Config) []*metrics.Table {
	w := NewWorld(cfg)
	e := w.SeededEngine(cfg.HeteroConfig(1))
	target := changedVersions(w.DS, trace.GenerateChanges(w.DS, scaledChangeParams(cfg)))

	numQueries := 50
	sample := map[int]bool{1: true, 2: true, 5: true, 10: true, 20: true, 50: true}
	t := metrics.NewTable("Figure 9 — AUR of query-reached users vs consecutive queries (lambda=1)",
		"queries", "AUR (reached users)", "cumulative users reached")

	reached := make(map[tagging.UserID]struct{})
	querier := tagging.UserID(0)
	for i := 1; i <= numQueries; i++ {
		q, ok := trace.QueryFor(w.DS, querier, cfg.Seed+uint64(1000+i))
		if !ok {
			break
		}
		qr := e.IssueQuery(q)
		if qr == nil {
			break
		}
		e.RunEager(cfg.Cycles * 2)
		for _, u := range qr.Reached() {
			reached[u] = struct{}{}
		}
		if sample[i] {
			ids := make([]tagging.UserID, 0, len(reached))
			for u := 0; u < e.Users(); u++ {
				if _, ok := reached[tagging.UserID(u)]; ok {
					ids = append(ids, tagging.UserID(u))
				}
			}
			t.Add(metrics.I(i), metrics.F(engineAUR(e, ids, target), 3), metrics.I(len(reached)))
		}
	}
	return []*metrics.Table{t}
}

// Fig10 reproduces Figure 10: after the change-set alters who the ideal
// neighbours are, the fraction of affected users that have discovered ALL
// their new neighbours through lazy gossip ("a strict metric": the ratio
// counts a user only when her network is completed). Both heterogeneous
// scenarios are reported.
func Fig10(cfg Config) []*metrics.Table {
	cycles := cfg.Cycles * 3
	step := max(cycles/10, 1)
	lambdas := []float64{1, 4}
	curves := make([][]float64, len(lambdas))
	for li, lambda := range lambdas {
		pw := NewWorld(cfg)
		e := pw.SeededEngine(cfg.HeteroConfig(lambda))
		oldIdeal := pw.Ideal
		trace.ApplyChanges(pw.DS, trace.GenerateChanges(pw.DS, scaledChangeParams(cfg)))
		newIdeal := similarity.IdealNetworks(pw.DS, cfg.S)

		// Per user, the neighbours her new ideal personal network gained;
		// changed counts the users who gained any.
		newNeighbours := make([][]tagging.UserID, cfg.Users)
		changed := 0
		for u := 0; u < cfg.Users; u++ {
			old := make(map[tagging.UserID]bool, len(oldIdeal[u]))
			for _, nb := range oldIdeal[u] {
				old[nb.ID] = true
			}
			for _, nb := range newIdeal[u] {
				if !old[nb.ID] {
					newNeighbours[u] = append(newNeighbours[u], nb.ID)
				}
			}
			if len(newNeighbours[u]) > 0 {
				changed++
			}
		}
		measure := func() float64 {
			if changed == 0 {
				return 100
			}
			done := 0
			for u, added := range newNeighbours {
				if len(added) == 0 {
					continue
				}
				all := true
				for _, nb := range added {
					if !e.Node(tagging.UserID(u)).PersonalNetwork().Contains(nb) {
						all = false
						break
					}
				}
				if all {
					done++
				}
			}
			return 100 * float64(done) / float64(changed)
		}
		curves[li] = lazyCurve(e, cycles, step, measure)
	}
	return []*metrics.Table{curveTable("Figure 10 — % of users having found all new neighbours",
		labels("l=%g", lambdas), steps(cycles, step), curves, 1)}
}
