package e2e

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"p3q/internal/core"
	"p3q/internal/peer"
	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// runToDone drives eager cycles from the lead until the gateway reports
// the query done, failing the test after 60.
func runToDone(t *testing.T, c *Cluster, cl *peer.Client, qid uint64) {
	t.Helper()
	for i := 0; i < 60; i++ {
		if err := c.Lead().RunEagerCycle(); err != nil {
			t.Fatalf("eager cycle %d: %v", i, err)
		}
		st, err := cl.Status(qid)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if !st.Known {
			t.Fatal("cluster lost the query")
		}
		if st.Done {
			return
		}
	}
	t.Fatal("query did not complete within 60 eager cycles")
}

// TestSmokeThreeDaemonQuery is the always-on smoke tier: a three-daemon
// cluster over the in-memory transport answers one query to full recall,
// through the real wire protocol end to end — submit via a member daemon
// (relayed to the lead), eager gossip conversations between daemons,
// partial results to the querier's daemon, status via the gateway client.
// The whole run must finish well inside five seconds of wall time.
func TestSmokeThreeDaemonQuery(t *testing.T) {
	start := time.Now()
	c := StartCluster(t, 3, 60, 11)
	if err := c.Lead().RunLazyCycles(8); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	ds := trace.Generate(c.Gen)
	queries := trace.GenerateQueries(ds, 3)
	if len(queries) == 0 {
		t.Fatal("dataset generated no queries")
	}
	q := queries[0]

	// Submit through a member, not the lead: exercises gateway relay.
	cl := c.Client(t, 1)
	qid, err := cl.Submit(q.Querier, q.Tags)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	runToDone(t, c, cl, qid)

	st, err := cl.Status(qid)
	if err != nil {
		t.Fatalf("final status: %v", err)
	}
	if st.Used != st.Needed {
		t.Errorf("recall incomplete: used %d of %d profiles", st.Used, st.Needed)
	}
	if len(st.Results) == 0 {
		t.Error("done query returned no results")
	}
	if st.Forwarded == 0 && st.Returned == 0 && st.PartialResults == 0 {
		t.Error("query finished with zero attributed traffic; the tallies are dead")
	}
	c.RequireNoDivergence(t)

	for i, d := range c.Daemons {
		stats, err := c.Client(t, i).Stats()
		if err != nil {
			t.Fatalf("stats from daemon %d: %v", i, err)
		}
		if stats.WireMsgs == 0 || stats.WireBytes == 0 {
			t.Errorf("daemon %d reports no wire traffic; the cluster is not actually talking", i)
		}
		_ = d
	}

	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("smoke tier took %v, budget is 5s", elapsed)
	}
}

// TestSmokeSubmitOutsidePopulation pins the gateway's answer to a querier
// no daemon hosts: a rejection naming the population, not an index panic in
// the lead's serving goroutine — and a cluster that still serves afterwards.
func TestSmokeSubmitOutsidePopulation(t *testing.T) {
	c := StartCluster(t, 3, 60, 11)
	if err := c.Lead().RunLazyCycles(8); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	cl := c.Client(t, 1)
	users := c.Gen.Users
	for _, querier := range []tagging.UserID{tagging.UserID(users), 1 << 20} {
		want := fmt.Sprintf("querier %d outside population of %d", querier, users)
		if _, err := cl.Submit(querier, []tagging.TagID{1}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("submit with querier %d: got %v, want a rejection saying %q", querier, err, want)
		}
	}

	q := trace.GenerateQueries(trace.Generate(c.Gen), 3)[0]
	qid, err := cl.Submit(q.Querier, q.Tags)
	if err != nil {
		t.Fatalf("valid submit after the rejected ones: %v", err)
	}
	runToDone(t, c, cl, qid)
	c.RequireNoDivergence(t)
}

// TestSmokeTwelveQueriesInFlight is the multi-querier reproducer: twelve
// queries whose queriers cover all three hosted ranges are in flight at
// once, so every daemon's exchange loop has a gossip parked on a peer
// whose handler must call back (the partial result to the querier's
// daemon) before it can answer. With one connection per peer pair that is
// a cycle and the first eager cycle never returns; with one connection per
// conversation it is not. Everything the cluster reports must equal a bare
// engine given the same schedule.
func TestSmokeTwelveQueriesInFlight(t *testing.T) {
	const (
		users, seed, warmup, inFlight = 600, 5, 8, 12
		guard                         = 20 * time.Second
	)
	c := StartCluster(t, 3, users, seed)
	if err := c.Lead().RunLazyCycles(warmup); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	ds := trace.Generate(c.Gen)
	all := trace.GenerateQueries(ds, 3)
	if len(all) < inFlight {
		t.Fatalf("dataset generated %d queries, want at least %d", len(all), inFlight)
	}
	cl := c.Client(t, 1)
	var queries []trace.Query
	var qids []uint64
	for i := 0; i < inFlight; i++ {
		q := all[i*len(all)/inFlight] // an even walk over the three ranges
		qid, err := cl.Submit(q.Querier, q.Tags)
		if err != nil {
			t.Fatalf("submitting query %d: %v", i, err)
		}
		queries, qids = append(queries, q), append(qids, qid)
	}

	cycles, finished := 0, make(chan error, 1)
	go func() {
		for !c.Lead().AllQueriesDone() {
			if err := c.Lead().RunEagerCycle(); err != nil {
				finished <- fmt.Errorf("eager cycle %d: %w", cycles, err)
				return
			}
			cycles++
		}
		finished <- nil
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(guard):
		t.Fatalf("the cluster is still inside its eager cycles after %v with %d queries in flight: deadlocked", guard, inFlight)
	}
	c.RequireNoDivergence(t)

	ref := core.New(ds, c.Engine)
	ref.Bootstrap()
	for i := 0; i < warmup; i++ {
		ref.LazyCycle()
	}
	var runs []*core.QueryRun
	for _, q := range queries {
		runs = append(runs, ref.IssueQuery(q))
	}
	refCycles := 0
	for ; !ref.AllQueriesDone(); refCycles++ {
		ref.EagerCycle()
	}
	if cycles != refCycles {
		t.Errorf("cluster settled in %d eager cycles, bare engine in %d", cycles, refCycles)
	}
	for i, run := range runs {
		st, err := cl.Status(qids[i])
		if err != nil {
			t.Fatalf("status for query %d: %v", i, err)
		}
		if st.Used != st.Needed {
			t.Errorf("query %d: recall incomplete, used %d of %d profiles", i, st.Used, st.Needed)
		}
		requireMatchesRun(t, i, qids[i], st, run)
	}
}
