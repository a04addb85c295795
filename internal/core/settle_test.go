package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	ckpt "p3q/internal/checkpoint"
	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// TestSettledQueriesReleaseState holds a settled query to its compact
// record. Once a query reaches full recall its working state (NRA,
// unmerged lists, used and active-node sets, in-flight count) is dropped
// with the one pointer that holds it, so at s = 50 and k = 10 the heap the
// query records retain is at most 600 B per settled query (~525 B; 653 B
// while the working state's headers stayed inline) and their
// checkpoint section at most 512 B per query (the reached list alone holds
// up to s+1 IDs). Retained heap is what a forced collection frees once the
// engine forgets the queries.
func TestSettledQueriesReleaseState(t *testing.T) {
	const (
		users, nQueries, burst     = 400, 100, 20
		heapPerQuery, ckptPerQuery = 600, 512
	)
	cfg := smallCfg()
	cfg.S, cfg.C, cfg.K = 50, 10, 10
	cfg.Workers = 1
	w := newWorld(t, users, cfg, 21)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	queries := trace.GenerateQueries(w.ds, 5)
	if len(queries) < nQueries {
		t.Fatalf("dataset generated %d queries, want %d", len(queries), nQueries)
	}
	for qs := queries[:nQueries]; len(qs) > 0; qs = qs[min(burst, len(qs)):] {
		for _, q := range qs[:min(burst, len(qs))] {
			e.IssueQuery(q)
		}
		e.RunEager(100)
	}

	for _, qr := range e.Queries() {
		if !qr.Done() {
			t.Fatalf("query %d did not settle within 100 eager cycles", qr.ID)
		}
		if qr.work != nil {
			t.Errorf("settled query %d still holds its working state", qr.ID)
		}
		reached := qr.Reached()
		if qr.ProfilesUsed() != qr.ProfilesNeeded() || len(reached) != qr.UsersReached() || len(reached) > cfg.S+1 ||
			!slices.IsSorted(reached) || !slices.Contains(reached, qr.Query.Querier) {
			t.Errorf("settled query %d: used %d of %d profiles, reached %v", qr.ID, qr.ProfilesUsed(), qr.ProfilesNeeded(), reached)
		}
	}

	var buf bytes.Buffer
	cw := ckpt.NewWriter(&buf)
	e.writeQueries(cw)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	record := float64(buf.Len()) / nQueries

	h1 := liveHeap()
	e.queries = nil
	h0 := liveHeap()
	runtime.KeepAlive(e)
	runtime.KeepAlive(queries)
	retained := (float64(h1) - float64(h0)) / nQueries

	t.Logf("per settled query: %.0f B of heap, %.0f B of checkpoint", retained, record)
	if retained > heapPerQuery {
		t.Errorf("a settled query retains %.0f B of heap, want at most %d", retained, heapPerQuery)
	}
	if record > ckptPerQuery {
		t.Errorf("a settled query takes %.0f B of checkpoint, want at most %d", record, ckptPerQuery)
	}
}

// TestRestoreRejectsSettledQueryInUse: a settled record carries no
// working state, so a snapshot in which a node still holds a branch of the
// query, or a delivery event still names it, is incoherent and must not
// restore. Nor may one whose query section skips an ID, or whose query
// counter disagrees with the queries it holds: the engine indexes its
// queries by ID.
func TestRestoreRejectsSettledQueryInUse(t *testing.T) {
	e, _, cfg := smallSnapshotOf(t)
	var settled *QueryRun
	for _, qr := range e.Queries() {
		if qr.Done() {
			settled = qr
			break
		}
	}
	n := e.nodes[0]
	last := e.queries[len(e.queries)-1]
	// The query count is the fifth counter, behind the header (magic,
	// version) and the parameter block.
	const countAt = 4 + 2 + 11*4 + 8 + 2*8 + 8 + 2 + 4*8
	for _, c := range []struct {
		name, want string
		corrupt    func() // alters the engine before the snapshot
		undo       func()
		patch      func(raw []byte) // alters the snapshot's bytes
	}{
		{"branch of a settled query", "branch of settled query",
			func() { n.setBranch(settled.ID, []tagging.UserID{1}) },
			func() { n.dropBranch(settled.ID) }, nil},
		{"event naming a settled query", "deliveries in flight",
			func() {
				n.frozen = []*eagerEvent{{kind: evBranchKeep, qid: settled.ID, members: []tagging.UserID{1}}}
			},
			func() { n.frozen = nil }, nil},
		{"skipped query ID", "query IDs not dense",
			func() { last.ID++ },
			func() { last.ID-- }, nil},
		{"query counter off by one", "query counter", nil, nil,
			func(raw []byte) {
				if got := binary.LittleEndian.Uint64(raw[countAt:]); got != uint64(len(e.queries)) {
					t.Fatalf("offset %d holds %d, the engine %d queries (did the layout change?)", countAt, got, len(e.queries))
				}
				binary.LittleEndian.PutUint64(raw[countAt:], uint64(len(e.queries))+1)
			}},
	} {
		if c.corrupt != nil {
			c.corrupt()
		}
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if c.undo != nil {
			c.undo()
		}
		if c.patch != nil {
			c.patch(buf.Bytes())
		}
		if _, err := Restore(&buf, nil, cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s surfaced as %v, want an error saying %q", c.name, err, c.want)
		}
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(&buf, nil, cfg); err != nil {
		t.Fatalf("the unaltered snapshot does not restore: %v", err)
	}
}

// TestActiveListHoldsOpenQueries: between cycles the active list is
// exactly the queries not yet settled, in issue order — including those
// that settle inside a lazy cycle's window, where deliveries delayed past
// the eager cycle that sent them land.
func TestActiveListHoldsOpenQueries(t *testing.T) {
	cfg := checkpointCfg(1, sim.LogNormalLatency{Median: 2 * time.Second, Sigma: 1.0})
	w := newWorld(t, 120, cfg, 77)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	check := func(when string) {
		t.Helper()
		var open []*QueryRun
		for _, qr := range e.Queries() {
			if !qr.Done() {
				open = append(open, qr)
			}
		}
		if !slices.Equal(e.active, open) {
			t.Fatalf("%s: active list holds %d queries, %d are open", when, len(e.active), len(open))
		}
		if st := e.Stats(); st.QueriesDone != st.QueriesIssued-len(open) {
			t.Fatalf("%s: Stats counts %d of %d done, %d are open", when, st.QueriesDone, st.QueriesIssued, len(open))
		}
	}
	lazySettled := false
	for i, q := range trace.GenerateQueries(w.ds, 5)[:20] {
		e.IssueQuery(q)
		e.EagerCycle()
		check("after an eager cycle")
		done := e.Stats().QueriesDone
		e.LazyCycle()
		check("after a lazy cycle")
		lazySettled = lazySettled || e.Stats().QueriesDone > done
		if i%5 == 4 {
			e.RunEager(100)
			check("after a burst")
		}
	}
	if !lazySettled {
		t.Fatal("no query settled inside a lazy cycle's window; the scenario must cover it")
	}
}
