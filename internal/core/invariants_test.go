package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"p3q/internal/randx"
	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// Property-based tests (testing/quick) on the protocol's core invariants.

func TestSplitRemainingPartitionProperty(t *testing.T) {
	// keep ∪ returned == rest, keep ∩ returned == ∅, for every alpha and
	// list shape.
	f := func(n uint8, alphaRaw uint8, seed uint64) bool {
		alpha := float64(alphaRaw%101) / 100
		rest := make([]tagging.UserID, n)
		for i := range rest {
			rest[i] = tagging.UserID(i)
		}
		rng := randx.NewSource(seed)
		keep, returned := splitRemaining(rest, alpha, rng)
		if len(keep)+len(returned) != len(rest) {
			return false
		}
		seen := make(map[tagging.UserID]bool, len(rest))
		for _, u := range append(append([]tagging.UserID{}, keep...), returned...) {
			if seen[u] {
				return false
			}
			seen[u] = true
		}
		for _, u := range rest {
			if !seen[u] {
				return false
			}
		}
		// The destination keeps floor((1-alpha)*n).
		wantKeep := int((1 - alpha) * float64(len(rest)))
		if len(rest) > 0 && wantKeep < len(rest) && len(keep) != wantKeep {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRemainingExtremes(t *testing.T) {
	rest := []tagging.UserID{1, 2, 3, 4}
	rng := randx.NewSource(1)
	keep, ret := splitRemaining(rest, 1, rng) // alpha=1: all returned
	if len(keep) != 0 || len(ret) != 4 {
		t.Fatalf("alpha=1: keep=%d ret=%d", len(keep), len(ret))
	}
	keep, ret = splitRemaining(rest, 0, rng) // alpha=0: all kept
	if len(keep) != 4 || len(ret) != 0 {
		t.Fatalf("alpha=0: keep=%d ret=%d", len(keep), len(ret))
	}
	keep, ret = splitRemaining(nil, 0.5, rng)
	if keep != nil || ret != nil {
		t.Fatal("empty rest should split into nils")
	}
}

func TestMergeUniqueProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		branch := make([]tagging.UserID, len(a))
		for i, v := range a {
			branch[i] = tagging.UserID(v % 32)
		}
		// Deduplicate the starting branch as the protocol guarantees.
		branch = mergeUnique(nil, branch)
		add := make([]tagging.UserID, len(b))
		for i, v := range b {
			add[i] = tagging.UserID(v % 32)
		}
		merged := mergeUnique(branch, add)
		seen := make(map[tagging.UserID]int)
		for _, u := range merged {
			seen[u]++
			if seen[u] > 1 {
				return false
			}
		}
		// Everything from both inputs is present.
		for _, u := range branch {
			if seen[u] == 0 {
				return false
			}
		}
		for _, u := range add {
			if seen[u] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPnetInvariantsUnderRandomUpserts(t *testing.T) {
	// After any sequence of Upserts and Rebalances: size <= s, stored <= c,
	// the stored entries are exactly the top-c of the ranking, and the
	// ranking is sorted.
	f := func(ops []uint16, seed uint64) bool {
		pn := NewPersonalNetwork(999, 8, 3)
		rng := rand.New(rand.NewSource(int64(seed)))
		profiles := make(map[tagging.UserID]*tagging.Profile)
		for _, op := range ops {
			id := tagging.UserID(op % 40)
			if id == 999 {
				continue
			}
			score := int(op%13) + 1
			p := profiles[id]
			if p == nil {
				p = tagging.NewProfile(id)
				p.Add(tagging.ItemID(rng.Intn(100)), tagging.TagID(rng.Intn(10)))
				profiles[id] = p
			}
			d := tagging.NewDigest(p.Snapshot(), 256, 3)
			e := pn.Upsert(id, score, d)
			for _, need := range pn.Rebalance() {
				need.Stored = int32(profiles[need.ID].Version())
			}
			_ = e
		}
		if pn.Len() > 8 {
			return false
		}
		ranking := pn.Ranking()
		for i := 1; i < len(ranking); i++ {
			a, b := ranking[i-1], ranking[i]
			if a.Score < b.Score || (a.Score == b.Score && a.ID > b.ID) {
				return false
			}
		}
		stored := pn.StoredEntries()
		if len(stored) > 3 {
			return false
		}
		// Stored entries are a prefix of the ranking.
		for i, e := range stored {
			if ranking[i].ID != e.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryPartitionInvariantDuringProcessing(t *testing.T) {
	// At every point of a query's processing, each personal-network member
	// of the querier is in AT MOST one remaining list across all nodes, and
	// never in a remaining list after her profile was used.
	cfg := smallCfg()
	w := newWorld(t, 120, cfg, 40)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	q, _ := trace.QueryFor(w.ds, 3, 14)
	qr := e.IssueQuery(q)
	for cycle := 0; cycle < 40 && !qr.Done(); cycle++ {
		e.EagerCycle()
		holders := make(map[tagging.UserID]tagging.UserID) // member -> branch holder
		for u := 0; u < e.Users(); u++ {
			node := e.nodes[u]
			for _, member := range node.branch(qr.ID) {
				if prev, dup := holders[member]; dup {
					t.Fatalf("cycle %d: member %d in two remaining lists (%d and %d)",
						cycle, member, prev, u)
				}
				holders[member] = tagging.UserID(u)
				if _, used := slices.BinarySearch(qr.work.used, member); used {
					t.Fatalf("cycle %d: member %d still pending after being used", cycle, member)
				}
			}
		}
	}
	if !qr.Done() {
		t.Fatal("query did not complete")
	}
}

func TestScoresNeverDecreaseUnderGossip(t *testing.T) {
	// Profiles are append-only, so a neighbour's similarity score can only
	// grow as fresher versions are integrated.
	cfg := smallCfg()
	w := newWorld(t, 80, cfg, 41)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	before := make(map[[2]uint32]int)
	for u := 0; u < e.Users(); u++ {
		for _, entry := range e.nodes[u].pnet.Ranking() {
			before[[2]uint32{uint32(u), uint32(entry.ID)}] = int(entry.Score)
		}
	}
	trace.ApplyChanges(w.ds, trace.GenerateChanges(w.ds, trace.ChangeParams{
		FracUsers: 0.4, MeanNew: 6, SigmaNew: 0.5, MaxNew: 25, Seed: 12,
	}))
	e.RunLazy(15)
	for u := 0; u < e.Users(); u++ {
		for _, entry := range e.nodes[u].pnet.Ranking() {
			if old, ok := before[[2]uint32{uint32(u), uint32(entry.ID)}]; ok && int(entry.Score) < old {
				t.Fatalf("user %d neighbour %d: score fell %d -> %d", u, entry.ID, old, entry.Score)
			}
		}
	}
}

// newChangingWorld is an 80-user engine on ideal networks whose profiles
// then grow: half the users tag a few new items each.
func newChangingWorld(t *testing.T) (*Engine, *testWorld) {
	cfg := smallCfg()
	w := newWorld(t, 80, cfg, 42)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	applyFirstChanges(w.ds)
	return e, w
}

// applyFirstChanges grows half the profiles: the change batch of
// newChangingWorld.
func applyFirstChanges(ds *trace.Dataset) {
	trace.ApplyChanges(ds, trace.GenerateChanges(ds, trace.ChangeParams{
		FracUsers: 0.5, MeanNew: 8, SigmaNew: 0.6, MaxNew: 30, Seed: 13,
	}))
}

// newExplicitWorld is newWorld's 80 users on explicit networks of s random
// declared friends each (SeedExplicitNetworks), with membership frozen or
// not, whose profiles then grow by newChangingWorld's change batch.
func newExplicitWorld(t *testing.T, static bool) *Engine {
	cfg := smallCfg()
	cfg.StaticNetworks = static
	w := newWorld(t, 80, cfg, 42)
	rng := rand.New(rand.NewSource(5))
	contacts := make([][]tagging.UserID, 80)
	for u := range contacts {
		for _, f := range rng.Perm(80)[:cfg.S+1] {
			if f != u && len(contacts[u]) < cfg.S {
				contacts[u] = append(contacts[u], tagging.UserID(f))
			}
		}
	}
	e := New(w.ds, cfg)
	e.SeedExplicitNetworks(contacts)
	applyFirstChanges(w.ds)
	return e
}

// TestNeighbourMemoTracksItsDigest pins that a neighbour's evaluated-memo
// entry is absent or equal to the version of the digest her entry holds,
// after every lazy cycle, on ideal networks (newChangingWorld) and on
// explicit ones with and without StaticNetworks. A declared friend whose
// new version shares no item is upserted at her floor score of 1, so her
// entry moves to the version the memo records.
func TestNeighbourMemoTracksItsDigest(t *testing.T) {
	const cycles = 30
	check := func(t *testing.T, e *Engine) {
		t.Helper()
		held := 0
		for cycle := 0; cycle < cycles; cycle++ {
			e.LazyCycle()
			for u, n := range e.nodes {
				for _, entry := range n.pnet.Ranking() {
					v, ok := n.evaluated.Get(uint32(entry.ID))
					if !ok {
						continue
					}
					held++
					if int(v) != entry.Digest.Version {
						t.Fatalf("cycle %d: user %d's memo of neighbour %d is version %d, her entry's digest %d",
							cycle, u, entry.ID, v, entry.Digest.Version)
					}
				}
			}
		}
		if held == 0 {
			t.Fatal("no neighbour has a memo entry; the check never ran")
		}
	}
	t.Run("ideal", func(t *testing.T) {
		e, _ := newChangingWorld(t)
		check(t, e)
	})
	for _, static := range []bool{false, true} {
		t.Run(fmt.Sprintf("explicit/static=%v", static), func(t *testing.T) {
			check(t, newExplicitWorld(t, static))
		})
	}
}

// TestDeclaredFriendsStayFresh: on explicit networks every stored replica
// has caught up with its owner after 60 lazy cycles. It holds only if a
// friend whose grown profile still shares no item is upserted at her new
// version: once memoized there, no later offer of that version is scored,
// so an entry left at the old digest would keep its old replica.
func TestDeclaredFriendsStayFresh(t *testing.T) {
	for _, static := range []bool{false, true} {
		e := newExplicitWorld(t, static)
		for cycle := 0; cycle < 60; cycle++ {
			e.LazyCycle()
		}
		stored, stale := 0, 0
		for _, n := range e.nodes {
			for _, entry := range n.pnet.StoredEntries() {
				stored++
				if int(entry.Stored) != e.ds.Profiles[entry.ID].Version() {
					stale++
				}
			}
		}
		if stored == 0 || stale != 0 {
			t.Errorf("static=%v: %d of %d stored replicas are stale after 60 lazy cycles", static, stale, stored)
		}
	}
}

func TestStoredReplicasNeverNewerThanOwner(t *testing.T) {
	// A replica can lag its owner but can never be ahead of her.
	e, w := newChangingWorld(t)
	for cycle := 0; cycle < 10; cycle++ {
		e.LazyCycle()
		for u := 0; u < e.Users(); u++ {
			for _, entry := range e.nodes[u].pnet.StoredEntries() {
				owner := w.ds.Profiles[entry.ID]
				if int(entry.Stored) > owner.Version() {
					t.Fatalf("user %d stores version %d of %d, owner only has %d",
						u, entry.Stored, entry.ID, owner.Version())
				}
				if entry.Digest.Version > owner.Version() {
					t.Fatalf("user %d knows digest version %d of %d, owner only has %d",
						u, entry.Digest.Version, entry.ID, owner.Version())
				}
			}
		}
	}
}

// TestEvaluatedMemoHoldsOnlyScoredVersions runs lazy cycles on the
// changing world, with a second batch of profile changes halfway, and
// checks every node's evaluated memo after each cycle:
//
//   - no entry lowered its version, unless the own profile changed and the
//     memo was cleared;
//   - every entry (u, v) names a current neighbour or a user whose digest at
//     version v shares an item with the own profile — a stranger screened
//     out by the Bloom test is not remembered.
func TestEvaluatedMemoHoldsOnlyScoredVersions(t *testing.T) {
	e, w := newChangingWorld(t)
	type memo struct {
		evalVersion int
		versions    map[uint32]int32
	}
	read := func(n *Node) memo {
		m := memo{evalVersion: n.evalVersion, versions: make(map[uint32]int32)}
		n.evaluated.Range(func(owner uint32, v int32) { m.versions[owner] = v })
		return m
	}
	prev := make([]memo, e.Users())
	for u, n := range e.nodes {
		prev[u] = read(n)
	}
	var common []tagging.ItemID
	outside := 0 // entries naming a non-neighbour: the ones the Bloom check covers
	for cycle := 0; cycle < 10; cycle++ {
		if cycle == 5 {
			trace.ApplyChanges(w.ds, trace.GenerateChanges(w.ds, trace.ChangeParams{
				FracUsers: 0.3, MeanNew: 5, SigmaNew: 0.5, MaxNew: 20, Seed: 14,
			}))
		}
		e.LazyCycle()
		for u, n := range e.nodes {
			cur := read(n)
			for owner, v := range cur.versions {
				if n.pnet.Contains(tagging.UserID(owner)) {
					continue
				}
				outside++
				d := tagging.NewDigest(w.ds.Profiles[owner].SnapshotAt(int(v)), e.cfg.BloomBits, e.cfg.BloomHashes)
				if common = d.AppendCommonItems(common, n.profile); len(common) == 0 {
					t.Fatalf("cycle %d: user %d remembers stranger %d at version %d, which shares no item", cycle, u, owner, v)
				}
			}
			if cur.evalVersion == prev[u].evalVersion {
				for owner, v := range prev[u].versions {
					if now, ok := cur.versions[owner]; !ok || now < v {
						t.Fatalf("cycle %d: user %d's memo of %d went from version %d to %d (held: %v)", cycle, u, owner, v, now, ok)
					}
				}
			}
			prev[u] = cur
		}
	}
	if outside == 0 {
		t.Fatal("no memo entry outside the personal networks: the stranger check never ran")
	}
}

// TestEvaluatedMemoNeverGoesDown replays a commit order the planners
// produce: a partner-side integration commits a neighbour's profile at v2,
// then the node's own random-view contact, planned against the cycle-start
// memo, commits the same neighbour's offer scored at v1 < v2. The memo
// must keep v2, and the entry its v2 digest.
func TestEvaluatedMemoNeverGoesDown(t *testing.T) {
	cfg := smallCfg()
	w := newWorld(t, 40, cfg, 7)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	a := e.nodes[0]
	u := a.pnet.Ranking()[0].ID
	prof := w.ds.Profiles[u]
	for it := tagging.ItemID(0); prof.Version() < a.pnet.Entry(u).Digest.Version+2; it++ {
		prof.Add(it, 0)
	}
	v2 := prof.Version()
	v1 := v2 - 1
	result := func(v int) intResult {
		snap := prof.SnapshotAt(v)
		o := offer{digest: tagging.NewDigest(snap, cfg.BloomBits, cfg.BloomHashes), snap: snap}
		return intResult{o: o, score: max(a.profile.CommonScore(snap), 1)}
	}

	sh := &commitShard{lo: 0, hi: tagging.UserID(e.Users())}
	e.net.InitLedger(&sh.ledger)
	it := integration{provider: e.nodes[1].id, results: []intResult{result(v2)}}
	a.commitIntegration(&it, sh)
	if v, _ := a.evaluated.Get(uint32(u)); int(v) != v2 {
		t.Fatalf("after the integration the memo holds version %d of %d, want %d", v, u, v2)
	}

	p := &topPlan{used: true, rv: []rvContact{{owner: u, scored: true, res: [1]intResult{result(v1)}}}}
	e.net.InitLedger(&p.ledger)
	e.commitTopShard(a, p, sh)
	if v, _ := a.evaluated.Get(uint32(u)); int(v) != v2 {
		t.Fatalf("the random-view contact at version %d lowered the memo of %d to %d, want %d", v1, u, v, v2)
	}
	if got := a.pnet.Entry(u).Digest.Version; got != v2 {
		t.Fatalf("the random-view contact at version %d moved the entry of %d to version %d, want %d", v1, u, got, v2)
	}
}
