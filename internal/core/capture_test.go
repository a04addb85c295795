package core

import (
	"testing"

	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// TestCapturedRunMatchesPlainRun pins the capture contract: a run stepped
// through the captured cycle variants is byte-for-byte identical to the
// same run stepped through the plain ones. The daemon's replicas step
// with capture on, so any capture-path side effect would silently diverge
// the cluster from the reference engine.
func TestCapturedRunMatchesPlainRun(t *testing.T) {
	ds := trace.Generate(trace.DefaultGenParams(60))
	cfg := DefaultConfig()
	cfg.Seed = 11

	plain := New(ds, cfg)
	plain.Bootstrap()
	captured := New(ds, cfg)
	captured.Bootstrap()

	for i := 0; i < 8; i++ {
		plain.LazyCycle()
		captured.LazyCycleCaptured()
	}
	queries := trace.GenerateQueries(ds, 3)[:10]
	for _, q := range queries {
		plain.IssueQuery(q)
		if _, cp := captured.IssueQueryCaptured(q); cp == nil {
			t.Fatalf("IssueQueryCaptured(%d) returned nil capture", q.Querier)
		}
	}
	for i := 0; i < 40 && !plain.AllQueriesDone(); i++ {
		plain.EagerCycle()
		captured.EagerCycleCaptured()
	}
	if !captured.AllQueriesDone() {
		t.Fatal("captured engine did not settle with the plain one")
	}
	if a, b := engineFingerprint(plain), engineFingerprint(captured); a != b {
		t.Errorf("captured run diverged from plain run:\nplain:\n%s\ncaptured:\n%s", a, b)
	}
}

// TestEagerCapturePairBytesSumToQueryBytes pins the attribution contract
// the daemons' wire-layer tallies rely on: summing the per-pair Bytes of
// every captured gossip, plus nothing else, reproduces each query's
// QueryBytes exactly.
func TestEagerCapturePairBytesSumToQueryBytes(t *testing.T) {
	ds := trace.Generate(trace.DefaultGenParams(50))
	cfg := DefaultConfig()
	cfg.Seed = 7
	e := New(ds, cfg)
	e.Bootstrap()
	e.RunLazy(10)

	sums := make(map[uint64]QueryBytes)
	for _, q := range trace.GenerateQueries(ds, 5)[:12] {
		qr := e.IssueQuery(q)
		sums[qr.ID] = QueryBytes{}
	}
	for i := 0; i < 40 && !e.AllQueriesDone(); i++ {
		cp := e.EagerCycleCaptured()
		for pi := range cp.Pairs {
			p := &cp.Pairs[pi]
			s := sums[p.Qid]
			s.Forwarded += p.Bytes.Forwarded
			s.Returned += p.Bytes.Returned
			s.PartialResults += p.Bytes.PartialResults
			s.Maintenance += p.Bytes.Maintenance
			sums[p.Qid] = s
		}
	}
	if !e.AllQueriesDone() {
		t.Fatal("queries did not settle")
	}
	for _, qr := range e.Queries() {
		if got, want := sums[qr.ID], qr.Bytes(); got != want {
			t.Errorf("query %d: captured pair bytes %+v, engine %+v", qr.ID, got, want)
		}
	}
}

// TestEagerCaptureReplaysQuerierBookkeeping drives the querier-side state
// machine a daemon runs — used-profile and active-branch tracking from the
// captured pairs alone — and checks it reaches the engine's own counters.
// This is the daemon's done-detection path: a query is done exactly when
// no node holds a non-empty branch.
func TestEagerCaptureReplaysQuerierBookkeeping(t *testing.T) {
	ds := trace.Generate(trace.DefaultGenParams(40))
	cfg := DefaultConfig()
	cfg.Seed = 21
	e := New(ds, cfg)
	e.Bootstrap()
	e.RunLazy(10)

	type qstate struct {
		used   map[tagging.UserID]struct{}
		active map[tagging.UserID]struct{}
	}
	states := make(map[uint64]*qstate)
	for _, q := range trace.GenerateQueries(ds, 9)[:8] {
		qr, cp := e.IssueQueryCaptured(q)
		st := &qstate{used: make(map[tagging.UserID]struct{}), active: make(map[tagging.UserID]struct{})}
		for _, o := range cp.UsedOwners {
			st.used[o] = struct{}{}
		}
		if !cp.Done {
			st.active[cp.Querier] = struct{}{}
		}
		if cp.Needed != qr.ProfilesNeeded() || cp.Qid != qr.ID {
			t.Fatalf("issue capture mismatch: %+v vs needed=%d id=%d", cp, qr.ProfilesNeeded(), qr.ID)
		}
		states[qr.ID] = st
	}
	for i := 0; i < 40 && !e.AllQueriesDone(); i++ {
		cp := e.EagerCycleCaptured()
		// The engine's order: every initiator's branch leaves at send time,
		// then the hand-offs arrive.
		for pi := range cp.Pairs {
			if p := &cp.Pairs[pi]; p.Ok {
				delete(states[p.Qid].active, p.Initiator)
			}
		}
		for pi := range cp.Pairs {
			p := &cp.Pairs[pi]
			st := states[p.Qid]
			if !p.Ok {
				continue
			}
			if p.Delivered {
				for _, o := range p.FoundOwners {
					st.used[o] = struct{}{}
				}
			}
			if len(p.Keep) > 0 {
				st.active[p.Dest] = struct{}{}
			}
			if len(p.Returned) > 0 {
				st.active[p.Initiator] = struct{}{}
			}
		}
		// Done-detection must agree with the engine after every cycle, not
		// only at the end.
		for _, qr := range e.Queries() {
			if st := states[qr.ID]; (len(st.active) == 0) != qr.Done() {
				t.Fatalf("cycle %d query %d: replayed active set has %d nodes, engine done=%v",
					i, qr.ID, len(st.active), qr.Done())
			}
		}
	}
	if !e.AllQueriesDone() {
		t.Fatal("queries did not settle")
	}
	for _, qr := range e.Queries() {
		st := states[qr.ID]
		if len(st.used) != qr.ProfilesUsed() {
			t.Errorf("query %d: replayed used=%d, engine=%d", qr.ID, len(st.used), qr.ProfilesUsed())
		}
		if len(st.active) != 0 {
			t.Errorf("query %d: replayed active set not drained: %d nodes", qr.ID, len(st.active))
		}
		if len(st.used) != qr.ProfilesNeeded() {
			t.Errorf("query %d: replayed used=%d, needed=%d", qr.ID, len(st.used), qr.ProfilesNeeded())
		}
	}
}
