package core

import (
	"fmt"
	"testing"

	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// engineFingerprint captures everything the determinism contract promises:
// personal networks (members, scores, timestamps, digest and stored
// versions), random views, query results, per-query time metrics
// (time-to-first-result / time-to-full-recall on the virtual clock),
// in-flight and frozen delivery events, and the network's full traffic
// counters, globally and per node.
func engineFingerprint(e *Engine) string {
	out := ""
	for u := 0; u < e.Users(); u++ {
		n := e.Node(tagging.UserID(u))
		out += fmt.Sprintf("node %d online=%v\n", u, e.Network().Online(n.ID()))
		for _, entry := range n.PersonalNetwork().Ranking() {
			out += fmt.Sprintf("  pnet %d score=%d ts=%d dv=%d sv=%d\n",
				entry.ID, entry.Score, entry.Age(), entry.Digest.Version, entry.Stored.Version())
		}
		for _, d := range n.View().Entries() {
			out += fmt.Sprintf("  view %d v=%d\n", d.Node, d.Digest.Version)
		}
		tr := e.Network().NodeTraffic(n.ID())
		out += fmt.Sprintf("  sent msgs=%d bytes=%d\n", tr.TotalMsgs(), tr.TotalBytes())
	}
	for _, qr := range e.Queries() {
		out += fmt.Sprintf("query %d state=%v reached=%v used=%d:", qr.ID, qr.State(), qr.Reached(), qr.ProfilesUsed())
		for _, r := range qr.Results() {
			out += fmt.Sprintf(" %d/%d", r.Item, r.Score)
		}
		b := qr.Bytes()
		t1st, tfull := int64(-1), int64(-1)
		if d, ok := qr.TimeToFirstResult(); ok {
			t1st = int64(d)
		}
		if d, ok := qr.TimeToFullRecall(); ok {
			tfull = int64(d)
		}
		out += fmt.Sprintf(" bytes=%d/%d/%d/%d cyc=%d t1st=%d tfull=%d inflight=%d\n",
			b.Forwarded, b.Returned, b.PartialResults, b.Maintenance,
			qr.Cycles(), t1st, tfull, qr.InFlight())
	}
	total := e.Network().Total()
	for k := range total.Msgs {
		out += fmt.Sprintf("total %v msgs=%d bytes=%d\n", sim.Kind(k), total.Msgs[k], total.Bytes[k])
	}
	for u := 0; u < e.Users(); u++ {
		if n := len(e.frozen[tagging.UserID(u)]); n > 0 {
			out += fmt.Sprintf("frozen %d n=%d\n", u, n)
		}
	}
	out += fmt.Sprintf("now=%d pending=%d\n", int64(e.Now()), e.PendingEvents())
	out += fmt.Sprintf("naive=%d\n", e.NaiveExchangeBytes())
	return out
}

// runMixedWorkload drives an engine through the full protocol surface:
// organic lazy convergence, profile changes, a query burst over eager
// cycles with massive departures striking mid-burst (stalling the killed
// queriers' queries and probing departed branch holders), lazy maintenance
// under churn, revival, and a second churn wave.
func runMixedWorkload(t *testing.T, workers int) string {
	t.Helper()
	cfg := smallCfg()
	cfg.S = 15
	cfg.C = 5
	cfg.Workers = workers
	w := newWorld(t, 120, cfg, 77)
	e := New(w.ds, cfg)
	e.Bootstrap()
	e.RunLazy(8)

	trace.ApplyChanges(w.ds, trace.GenerateChanges(w.ds, trace.ChangeParams{
		FracUsers: 0.3, MeanNew: 4, SigmaNew: 0.5, MaxNew: 15, Seed: 9,
	}))
	e.RunLazy(4)

	for _, q := range trace.GenerateQueries(w.ds, 5)[:20] {
		e.IssueQuery(q)
	}
	e.RunEager(2)

	// Churn mid-burst: 25% departures over 20 queriers all but guarantee
	// stalled queries; the survivors keep gossiping around the holes.
	killed := e.Kill(0.25)
	if len(killed) == 0 {
		t.Fatal("Kill removed nobody")
	}
	stalled := 0
	for _, qr := range e.Queries() {
		if qr.State() == QueryStalled {
			stalled++
		}
	}
	if stalled == 0 {
		t.Fatal("churn stalled no query; the mixed scenario must cover the querier-departure path")
	}
	for i := 0; i < 3; i++ {
		e.EagerCycle()
	}
	e.RunLazy(2)
	e.Revive(killed)
	e.RunEager(20) // stalled queries resume

	killed = e.Kill(0.25)
	if len(killed) == 0 {
		t.Fatal("second Kill removed nobody")
	}
	e.RunLazy(4)
	e.Revive(killed)
	e.RunLazy(4)

	return engineFingerprint(e)
}

func TestParallelDeterminism(t *testing.T) {
	// A Workers: N engine and a Workers: 1 engine over the same dataset
	// and seed must produce byte-for-byte identical personal networks,
	// query results, reached-sets and sim.Network traffic counters after
	// mixed lazy/eager/churn cycles — both modes plan AND commit in
	// parallel. Run this test under -race to also certify both phases
	// data-race free (the CI workflow does).
	sequential := runMixedWorkload(t, 1)
	for _, workers := range []int{2, 8} {
		parallel := runMixedWorkload(t, workers)
		if parallel != sequential {
			t.Fatalf("Workers=%d diverged from Workers=1:\n%s", workers,
				firstDiff(sequential, parallel))
		}
	}
}

func TestShardCountIndependence(t *testing.T) {
	// Workers also sets the number of commit shards: the 120-node mixed
	// workload partitions into 1, 2 and 7 contiguous ranges here — 7 does
	// not divide 120, so the last shard is short, and pairs routinely span
	// two shards. The fingerprints must still match byte-for-byte: shards
	// never share a node and each node receives its intents in the
	// canonical (cycle, pair, role) order regardless of the partition.
	want := runMixedWorkload(t, 1)
	for _, workers := range []int{2, 7} {
		got := runMixedWorkload(t, workers)
		if got != want {
			t.Fatalf("Workers=%d sharded commit diverged from Workers=1:\n%s",
				workers, firstDiff(want, got))
		}
	}
}

// firstDiff returns the first differing line of two fingerprints, for
// readable failure output.
func firstDiff(a, b string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("...%q vs ...%q", a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}

func TestRepeatedRunsIdentical(t *testing.T) {
	// Two runs at the same worker count are identical too (the planners'
	// split streams are pure functions of the cycle-start state).
	a := runMixedWorkload(t, 4)
	b := runMixedWorkload(t, 4)
	if a != b {
		t.Fatalf("two identical Workers=4 runs diverged:\n%s", firstDiff(a, b))
	}
}

func TestWorkersSanitized(t *testing.T) {
	cfg := smallCfg()
	cfg.Workers = 0
	w := newWorld(t, 20, cfg, 1)
	e := New(w.ds, cfg)
	if e.Config().Workers < 1 {
		t.Fatalf("sanitize left Workers=%d, want >= 1", e.Config().Workers)
	}
	cfg.Workers = -3
	if e = New(w.ds, cfg); e.Config().Workers < 1 {
		t.Fatalf("sanitize left Workers=%d for negative input", e.Config().Workers)
	}
}

func TestKillStreamsDecorrelated(t *testing.T) {
	// Two Kill calls with no intervening cycle must draw from independent
	// streams: with the old constant 0xDEAD label, killing 50% after a
	// full revival reproduced the exact same set.
	cfg := smallCfg()
	w := newWorld(t, 200, cfg, 33)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)

	first := e.Kill(0.5)
	e.Revive(first)
	second := e.Kill(0.5)
	if len(first) == 0 || len(second) == 0 {
		t.Fatal("Kill removed nobody")
	}
	same := make(map[tagging.UserID]bool, len(first))
	for _, id := range first {
		same[id] = true
	}
	overlap := 0
	for _, id := range second {
		if same[id] {
			overlap++
		}
	}
	if overlap == len(first) && len(first) == len(second) {
		t.Fatal("two back-to-back Kill(0.5) calls selected identical sets (correlated streams)")
	}
}

func TestRandomViewContactChargesRequest(t *testing.T) {
	// Every random-view direct contact charges the initiating request
	// message symmetrically to fetchFromOwner, not just the owner's digest
	// response (the old accounting undercounted the §3.3 bandwidth
	// figures). Two users sharing one item, empty personal networks: the
	// only top-digest traffic of the first lazy cycle is the two direct
	// contacts, each a request/response pair.
	p0 := tagging.NewProfile(0)
	p0.Add(1, 1)
	p1 := tagging.NewProfile(1)
	p1.Add(1, 1)
	ds := &trace.Dataset{Profiles: []*tagging.Profile{p0, p1}, NumItems: 2, NumTags: 2}
	cfg := smallCfg()
	e := New(ds, cfg)
	e.Bootstrap()
	e.LazyCycle()
	tr := e.Network().Total()
	digestBytes := uint64(e.Node(0).digest().SizeBytes())
	if got, want := tr.Msgs[sim.MsgTopDigest], uint64(4); got != want {
		t.Fatalf("top-digest messages = %d, want %d (request + response per contact)", got, want)
	}
	if got, want := tr.Bytes[sim.MsgTopDigest], 2*requestBytes+2*digestBytes; got != want {
		t.Fatalf("top-digest bytes = %d, want %d (2 requests of %d + 2 digests of %d)",
			got, want, requestBytes, digestBytes)
	}
}
