package e2e

import (
	"slices"
	"testing"

	"p3q/internal/core"
	"p3q/internal/trace"
	"p3q/internal/wire"
)

// TestCrossCheckClusterMatchesEngine is the cross-check tier: the same
// trace and the same cycle schedule run twice — once through the
// deterministic in-process engine (the executable spec) and once through
// a four-daemon cluster speaking the wire protocol — and every
// observable must agree: query completion, recall, the exact result
// lists, and the per-query byte tallies — through every daemon's gateway.
//
// This is the test that makes the simulator the oracle for the daemon:
// a protocol change that alters what goes over the wire, or a byte
// accounting drift between the two implementations, fails here even if
// both sides still "work".
func TestCrossCheckClusterMatchesEngine(t *testing.T) {
	const (
		daemons = 4
		users   = 80
		seed    = 7
		warmup  = 8
		maxEag  = 80
	)

	// Reference run: the deterministic engine.
	gen := trace.DefaultGenParams(users)
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	ds := trace.Generate(gen)
	eng := core.New(ds, cfg)
	eng.Bootstrap()
	for i := 0; i < warmup; i++ {
		eng.LazyCycle()
	}
	queries := trace.GenerateQueries(ds, 3)
	if len(queries) < 2 {
		t.Fatalf("dataset generated %d queries, want at least 2", len(queries))
	}
	queries = queries[:2]
	var runs []*core.QueryRun
	for _, q := range queries {
		runs = append(runs, eng.IssueQuery(q))
	}
	engCycles := 0
	for ; engCycles < maxEag && !eng.AllQueriesDone(); engCycles++ {
		eng.EagerCycle()
	}
	if !eng.AllQueriesDone() {
		t.Fatalf("engine reference run did not finish within %d eager cycles", maxEag)
	}

	// Cluster run: identical trace, identical schedule, over the wire.
	c := StartCluster(t, daemons, users, seed)
	if err := c.Lead().RunLazyCycles(warmup); err != nil {
		t.Fatalf("cluster warmup: %v", err)
	}
	var qids []uint64
	for i, q := range queries {
		qid, err := c.Lead().SubmitQuery(q)
		if err != nil {
			t.Fatalf("submitting query %d: %v", i, err)
		}
		qids = append(qids, qid)
	}
	for i := 0; i < engCycles; i++ {
		if err := c.Lead().RunEagerCycle(); err != nil {
			t.Fatalf("cluster eager cycle %d: %v", i, err)
		}
	}
	c.RequireNoDivergence(t)

	// Every daemon answers from its own replica, so every gateway must
	// give the engine's answer, and every daemon the same query totals.
	for di := range c.Daemons {
		cl := c.Client(t, di)
		for i, run := range runs {
			st, err := cl.Status(qids[i])
			if err != nil {
				t.Fatalf("daemon %d: status for query %d: %v", di, i, err)
			}
			requireMatchesRun(t, i, qids[i], st, run)
		}
		stats, err := cl.Stats()
		if err != nil {
			t.Fatalf("daemon %d: stats: %v", di, err)
		}
		if n := uint64(len(runs)); stats.QueriesIssued != n || stats.QueriesSettled != n {
			t.Errorf("daemon %d reports %d queries issued and %d settled, %d were run",
				di, stats.QueriesIssued, stats.QueriesSettled, n)
		}
	}
}

// requireMatchesRun is the cross-check comparison for one settled query:
// what a cluster gateway reports must equal the bare engine's run of the
// same query under the same schedule — id, completion, recall, the exact
// result list, and the per-query byte tallies.
func requireMatchesRun(t *testing.T, i int, qid uint64, st *wire.QueryStatusResp, run *core.QueryRun) {
	t.Helper()
	if run.ID != qid {
		t.Errorf("query %d: engine qid %d, cluster qid %d", i, run.ID, qid)
	}
	if !st.Known {
		t.Fatalf("cluster does not know query %d", i)
	}
	if !st.Done {
		t.Errorf("query %d: engine done, cluster not done", i)
		return
	}
	if got, want := int(st.Used), run.ProfilesUsed(); got != want {
		t.Errorf("query %d: cluster used %d profiles, engine used %d", i, got, want)
	}
	if got, want := int(st.Needed), run.ProfilesNeeded(); got != want {
		t.Errorf("query %d: cluster needed %d profiles, engine needed %d", i, got, want)
	}
	if !slices.Equal(st.Results, run.Results()) {
		t.Errorf("query %d: cluster returned %+v, engine %+v", i, st.Results, run.Results())
	}
	b := run.Bytes()
	if st.Forwarded != b.Forwarded || st.Returned != b.Returned ||
		st.PartialResults != b.PartialResults || st.Maintenance != b.Maintenance {
		t.Errorf("query %d traffic: cluster {fwd %d ret %d partial %d maint %d}, engine {fwd %d ret %d partial %d maint %d}",
			i, st.Forwarded, st.Returned, st.PartialResults, st.Maintenance,
			b.Forwarded, b.Returned, b.PartialResults, b.Maintenance)
	}
}
