package e2e

import (
	"runtime"
	"testing"
	"time"

	"p3q/internal/trace"
)

// TestSoakSettledQueriesKeepHeapFlat is the daemon soak: a cluster that
// answers queries all day must not grow with the queries it has answered.
// Three in-process daemons run bursts of queries, each burst to full
// recall. Every query settles on every replica, and a settled query keeps
// only its compact record there (results, counters, the reached list of at
// most s+1 IDs: ~0.8 KB at s = 100). So after the warm-up bursts, which
// grow the plan pools and the connection pools to their working size, the
// live heap after a forced collection may grow by at most perSettle for
// every query settled on every replica, plus a fixed slack: the last
// cycle's capture with its (query, initiator) index, which a step keeps
// until the next one (a lazy capture is one slot per node, so its size
// follows the population, not the queries), and the evaluated memos that
// still fill as gossip pairs nodes that never met (together ~0.6 MB at
// this scale). A replica that kept each settled
// query's NRA and sets grows by tens of KB per settle instead.
func TestSoakSettledQueriesKeepHeapFlat(t *testing.T) {
	const (
		users, seed, lazyWarmup = 150, 5, 8
		burst, warm, measured   = 12, 3, 10 // queries per burst; bursts
		perSettle               = 1 << 10
		slack                   = 1 << 20
		maxCyclesPerBurst       = 60
	)
	start := time.Now()
	c := StartCluster(t, 3, users, seed)
	if err := c.Lead().RunLazyCycles(lazyWarmup); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	queries := trace.GenerateQueries(trace.Generate(c.Gen), 3)
	cl := c.Client(t, 1)
	next := 0
	runBurst := func() {
		t.Helper()
		for i := 0; i < burst; i++ {
			q := queries[next%len(queries)]
			next++
			if _, err := cl.Submit(q.Querier, q.Tags); err != nil {
				t.Fatalf("submitting query %d: %v", next, err)
			}
		}
		for cycles := 0; !c.Lead().AllQueriesDone(); cycles++ {
			if cycles == maxCyclesPerBurst {
				t.Fatalf("a burst did not settle within %d eager cycles", maxCyclesPerBurst)
			}
			if err := c.Lead().RunEagerCycle(); err != nil {
				t.Fatalf("eager cycle: %v", err)
			}
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for i := 0; i < warm; i++ {
		runBurst()
	}
	h0 := liveHeap()
	for i := 0; i < measured; i++ {
		runBurst()
	}
	h1 := liveHeap()
	c.RequireNoDivergence(t)

	settles := measured * burst * len(c.Daemons)
	growth := int64(h1) - int64(h0)
	t.Logf("live heap %d -> %d KB over %d settles (%d queries on %d replicas)",
		h0>>10, h1>>10, settles, measured*burst, len(c.Daemons))
	if limit := int64(perSettle*settles + slack); growth > limit {
		t.Errorf("live heap grew by %d KB over %d settles, want at most %d KB (%d B per settle + %d KB)",
			growth>>10, settles, limit>>10, perSettle, slack>>10)
	}
	if elapsed := time.Since(start); elapsed > soakBudget {
		t.Errorf("soak took %v, budget is %v", elapsed, soakBudget)
	}
}
