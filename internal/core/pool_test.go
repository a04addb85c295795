package core

import (
	"runtime"
	"testing"

	"p3q/internal/trace"
)

// poolBytesPerNodeBound bounds the plan and commit memory an engine keeps
// between cycles, per node. With per-worker planner scratch and per-cycle
// output arenas the run below keeps ~6.8-6.9 KB/node (two workers; the
// arenas are sized by the query burst's largest cycle). A record arena
// behind the plan ledgers would put it at ~7.7-8.1 KB/node, and one set of
// buffers per pooled plan slot at ~25.6 KB/node.
const poolBytesPerNodeBound = 7680 // 7.5 KB

// TestPlanPoolBytesPerNode measures what the engine's pooled working
// memory (Engine.scratch) keeps alive after a run whose heavy cycles come
// first — lazy cycles right after bootstrap, where every node scores many
// new candidates, and a query burst — and whose last cycles are light. The
// pools must follow the largest single cycle, not the sum over plan slots
// of each slot's largest cycle.
func TestPlanPoolBytesPerNode(t *testing.T) {
	const users = 1000
	p := trace.DefaultGenParams(users)
	p.MeanItems = 20
	p.Seed = 5
	ds := trace.Generate(p)
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Workers = 2
	e := New(ds, cfg)
	e.Bootstrap()
	e.RunLazy(6) // heavy: networks converging from nothing
	for _, q := range trace.GenerateQueries(ds, 5)[:300] {
		e.IssueQuery(q)
	}
	e.RunEager(40) // heavy: a burst of eager gossips
	e.RunLazy(6)   // light: converged networks, few new candidates

	with := liveHeap()
	e.scratch = scratch{}
	without := liveHeap()
	runtime.KeepAlive(e)
	bytesPerNode := (int64(with) - int64(without)) / users
	t.Logf("pooled plan memory: %d B/node", bytesPerNode)
	if bytesPerNode > poolBytesPerNodeBound {
		t.Fatalf("the engine keeps %d B/node of plan memory between cycles, bound %d", bytesPerNode, poolBytesPerNodeBound)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
// It collects twice: behind a test that built a large heap, one collection
// leaves tens of kilobytes that only the next one frees, enough to move a
// per-query reading by a third.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
