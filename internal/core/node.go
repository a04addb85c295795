package core

import (
	"cmp"
	"math/bits"
	"slices"

	"p3q/internal/gossip"
	"p3q/internal/idtab"
	"p3q/internal/randx"
	"p3q/internal/tagging"
)

// Node is one P3Q participant: a user, her profile, her personal network
// and random view, plus the per-query branches of remaining lists she is
// responsible for in eager mode and the deliveries parked for her while
// she is away.
type Node struct {
	id      tagging.UserID   //p3q:transient implicit: nodes serialize in index order, the id is the position
	e       *Engine          //p3q:transient engine back-pointer, re-attached on restore
	profile *tagging.Profile //p3q:transient re-resolved from the restored dataset (profiles serialize once, engine-level)
	pnet    *PersonalNetwork
	view    *gossip.View
	rng     *randx.Source

	// ownDigest caches the digest of the node's own profile per version.
	//
	//p3q:transient memo keyed by profile version, recomputed by digest() in the next pre-pass
	ownDigest *tagging.Digest

	// evaluated memoizes, per candidate owner, the highest profile version
	// already scored against the own profile. A digest whose version is not
	// newer carries no new information (Algorithm 1 drops it), so the
	// candidate is skipped without a Bloom scan. The cache is only valid
	// for the own profile version it was built against: scores grow when
	// the *own* profile grows, so the cache resets on own-profile change.
	evaluated   idtab.Table
	evalVersion int

	// branches holds this node's remaining list per active query, in
	// ascending query ID: the order eagerPairs gossips them in and Snapshot
	// writes them in. Only the nodes along active query paths hold any.
	branches []queryBranch

	// frozen parks the delivery events that fired while this node was
	// departed, in freeze order; replayFrozen re-schedules them at the
	// current clock once the node is back online — the simulation's
	// store-and-forward assumption for churn during delivery.
	frozen []*eagerEvent
}

// queryBranch is one remaining list a node holds: the members of query
// qid whose profiles are still to be collected through her.
type queryBranch struct {
	qid     uint64
	members []tagging.UserID
}

// branchPos returns where query qid's branch is, or would be inserted.
func (n *Node) branchPos(qid uint64) (int, bool) {
	return slices.BinarySearchFunc(n.branches, qid, func(b queryBranch, qid uint64) int {
		return cmp.Compare(b.qid, qid)
	})
}

// branch returns the node's remaining list of query qid, nil if she holds
// none.
func (n *Node) branch(qid uint64) []tagging.UserID {
	if i, ok := n.branchPos(qid); ok {
		return n.branches[i].members
	}
	return nil
}

// setBranch stores the node's remaining list of query qid.
func (n *Node) setBranch(qid uint64, members []tagging.UserID) {
	i, ok := n.branchPos(qid)
	if ok {
		n.branches[i].members = members
		return
	}
	n.branches = slices.Insert(n.branches, i, queryBranch{qid: qid, members: members})
}

// dropBranch removes the node's remaining list of query qid, if any.
func (n *Node) dropBranch(qid uint64) {
	if i, ok := n.branchPos(qid); ok {
		n.branches = slices.Delete(n.branches, i, i+1)
	}
}

// ID returns the node's user ID.
func (n *Node) ID() tagging.UserID { return n.id }

// Profile returns the node's live profile.
func (n *Node) Profile() *tagging.Profile { return n.profile }

// PersonalNetwork returns the node's personal network.
func (n *Node) PersonalNetwork() *PersonalNetwork { return n.pnet }

// View returns the node's random view.
func (n *Node) View() *gossip.View { return n.view }

// digest returns the current digest of the node's own profile, recomputing
// it only when the profile changed. The engine's per-cycle pre-pass calls
// it for every node, so during the parallel plan and commit phases — where
// planners and shard committers of other nodes read it — it is a pure
// read: profiles only change between cycles. It runs in the pre-pass as a
// unit of plan-phase work that owns its node exclusively, so the memo
// write below stays legal under phasepurity.
//
//p3q:phase plan
//p3q:hotpath
func (n *Node) digest() *tagging.Digest {
	if n.ownDigest == nil || n.ownDigest.Version != n.profile.Version() {
		n.ownDigest = tagging.NewDigest(n.profile.Snapshot(), n.e.cfg.BloomBits, n.e.cfg.BloomHashes)
	}
	return n.ownDigest
}

// descriptor returns the node's own peer-sampling descriptor with a fresh
// digest.
func (n *Node) descriptor() gossip.Descriptor {
	return gossip.Descriptor{Node: n.id, Digest: n.digest()}
}

// checkEvalCache invalidates the evaluated memo when the own profile
// changed since it was built. Pre-pass work: each unit owns its node.
//
//p3q:phase plan
//p3q:hotpath
func (n *Node) checkEvalCache() {
	if n.evalVersion != n.profile.Version() {
		n.evaluated.Clear()
		n.evalVersion = n.profile.Version()
	}
}

// evalSlot is one entry of the evaluated memo in checkpoint order: an owner
// and the highest version scored.
type evalSlot struct {
	owner   tagging.UserID
	version int32
}

// memoOrder is the working memory of appendSorted: a bitmap of the owners
// present and their versions in a dense column, both indexed by owner and
// grown to the largest owner seen. The bitmap is all zeroes between calls.
type memoOrder struct {
	present  []uint64
	versions []int32
}

// appendSorted appends the evaluated memo m to dst in ascending owner order —
// the canonical order of the checkpoint — and returns it. The table is
// scattered into o by owner and read back in bitmap order, so nothing is
// sorted: one pass over the table, one over the bitmap words it touched.
func (o *memoOrder) appendSorted(dst []evalSlot, m *idtab.Table) []evalSlot {
	lo, hi := len(o.present), 0
	m.Range(func(key uint32, version int32) {
		owner := int(key)
		w := owner >> 6
		if w >= len(o.present) {
			o.present = append(o.present, make([]uint64, w+1-len(o.present))...)
			o.versions = append(o.versions, make([]int32, len(o.present)<<6-len(o.versions))...)
		}
		o.present[w] |= 1 << (owner & 63)
		o.versions[owner] = version
		lo, hi = min(lo, w), max(hi, w+1)
	})
	for w := lo; w < hi; w++ {
		for word := o.present[w]; word != 0; word &= word - 1 {
			owner := w<<6 | bits.TrailingZeros64(word)
			dst = append(dst, evalSlot{owner: tagging.UserID(owner), version: o.versions[owner]})
		}
		o.present[w] = 0
	}
	return dst
}

// offer is a profile advertisement inside a gossip message: the digest that
// is actually transmitted in step 1, plus the snapshot the advertiser would
// serve in steps 2-3 (her own profile or a stored replica). Holding the
// snapshot is simulation convenience only — its bytes are charged exactly
// when the corresponding protocol step transfers them.
type offer struct {
	digest *tagging.Digest
	snap   tagging.Snapshot
}

// advertise builds the gossip payload of the top layer (§2.2.1): the
// node's own profile plus a random subset of at most MaxDigestsPerGossip
// stored neighbour profiles ("if more than 50 profiles are stored ... 50
// random ones among them are exchanged ... Otherwise, all the profiles are
// exchanged"). The sampling randomness is passed in explicitly: both the
// lazy and the eager planners derive per-cycle split streams (planLabel /
// eagerStream) so that concurrent planners never contend on a shared
// source.
//
// The batch is built in the planning worker's offer buffer, valid until
// the worker's next advertisement, with the worker's stored-entry buffer
// and sampler as scratch. The memory is the worker's, never the node's: a
// node can be the partner of several concurrently planning initiators,
// each of which advertises it.
//
//p3q:hotpath
func (n *Node) advertise(rng *randx.Source, w *planWorker) []offer {
	w.storedBuf = n.pnet.AppendStored(w.storedBuf)
	stored := w.storedBuf
	max := n.e.cfg.MaxDigestsPerGossip
	dst := append(w.offers[:0], offer{digest: n.digest(), snap: n.profile.Snapshot()})
	if len(stored) <= max {
		for _, e := range stored {
			dst = append(dst, offer{digest: e.Digest, snap: n.replica(e)})
		}
	} else {
		for _, i := range w.smp.Sample(rng, len(stored), max) {
			e := stored[i]
			dst = append(dst, offer{digest: e.Digest, snap: n.replica(e)})
		}
	}
	w.offers = dst
	return dst
}

// offersWireSize is the step-1 cost of a digest batch.
func offersWireSize(offers []offer) int {
	b := 0
	for _, o := range offers {
		b += o.digest.SizeBytes()
	}
	return b
}

// KnownProfiles returns the profiles this node can read locally: her own
// plus the stored replicas of her personal network. A query is evaluated
// against them (the paper's GoodProfiles before restriction to a remaining
// list), and extensions (such as personalized query expansion, §4) build
// their per-user statistics from exactly this set — the information P3Q
// already maintains.
func (n *Node) KnownProfiles() []tagging.Snapshot {
	stored := n.pnet.StoredEntries()
	out := make([]tagging.Snapshot, 0, 1+len(stored))
	out = append(out, n.profile.Snapshot())
	for _, e := range stored {
		out = append(out, n.replica(e))
	}
	return out
}

// replica returns the snapshot this node stores for neighbour entry e: the
// owner's profile truncated to the stored version. Profiles are
// append-only, so the prefix is exactly what was replicated.
func (n *Node) replica(e *Entry) tagging.Snapshot {
	return n.e.nodes[e.ID].profile.SnapshotAt(int(e.Stored))
}

// lookup returns the snapshot this node stores for user ul, if any: her own
// profile or a stored neighbour replica ("These profiles can be either her
// own profile or those stored in her personal network", §2.3).
func (n *Node) lookup(ul tagging.UserID) (tagging.Snapshot, bool) {
	if ul == n.id {
		return n.profile.Snapshot(), true
	}
	if e := n.pnet.Entry(ul); e != nil && e.Stored != noReplica {
		return n.replica(e), true
	}
	return tagging.Snapshot{}, false
}
