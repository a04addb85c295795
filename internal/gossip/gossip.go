// Package gossip implements the bottom layer of P3Q's two-layer gossip: the
// random peer sampling protocol (Jelasity et al., "Gossip-based peer
// sampling") that maintains each user's random view. Per §2.2.1 of the
// paper: "at each cycle, a user ui sends the r digests to a neighbour vj
// picked uniformly at random from her random view and receives r digests
// from vj. Then r digests among the 2r digests are randomly selected to
// form the new random view."
//
// The random view keeps the overlay connected regardless of how clustered
// the personal networks become, and surfaces new similarity candidates to
// the top layer.
package gossip

import (
	"p3q/internal/randx"
	"p3q/internal/tagging"
)

// Descriptor is one view entry: a node and the latest known digest of its
// profile. (The paper also exchanges contact information — IP and port —
// which the simulation does not need; its wire size is absorbed in the
// digest's.)
type Descriptor struct {
	Node   tagging.UserID
	Digest *tagging.Digest
}

// View is a node's random view: up to capacity descriptors of peers sampled
// approximately uniformly from the network. Descriptors live in a flat
// slice — the view's hot state is two words plus one dense array.
type View struct {
	self     tagging.UserID
	capacity int
	entries  []Descriptor
}

// MergeScratch is the working memory of MergeWith: the dedupe buffer and
// the sampling scratch. Its content is meaningless between calls, so one
// MergeScratch serves every view its owner merges, one at a time.
type MergeScratch struct {
	buf []Descriptor
	smp randx.Sampler
}

// NewView returns an empty view for the given node.
func NewView(self tagging.UserID, capacity int) *View {
	if capacity < 1 {
		capacity = 1
	}
	return &View{self: self, capacity: capacity}
}

// Capacity returns the view size r.
func (v *View) Capacity() int { return v.capacity }

// Size returns the current number of descriptors.
func (v *View) Size() int { return len(v.entries) }

// Entries returns the current descriptors. The returned slice aliases the
// view and must not be modified.
func (v *View) Entries() []Descriptor { return v.entries }

// Bootstrap seeds the view with initial peers (deduplicated, self excluded,
// truncated to capacity). The dedupe is a linear scan of the at most
// capacity entries kept so far, so a view that already has room for them
// allocates nothing.
func (v *View) Bootstrap(peers []Descriptor) {
	if n := min(len(peers), v.capacity); cap(v.entries) < n {
		v.entries = make([]Descriptor, 0, n)
	}
	v.entries = v.entries[:0]
	for _, d := range peers {
		if d.Node == v.self || v.index(d.Node) >= 0 {
			continue
		}
		v.entries = append(v.entries, d)
		if len(v.entries) == v.capacity {
			break
		}
	}
}

// index returns the position of node's descriptor in the view, -1 if none.
func (v *View) index(node tagging.UserID) int {
	for i := range v.entries {
		if v.entries[i].Node == node {
			return i
		}
	}
	return -1
}

// SelectPartner picks a gossip partner uniformly at random from the view.
// ok is false when the view is empty.
func (v *View) SelectPartner(rng *randx.Source) (Descriptor, bool) {
	if len(v.entries) == 0 {
		return Descriptor{}, false
	}
	return v.entries[rng.Intn(len(v.entries))], true
}

// SendBufferInto appends the descriptors to ship to a partner into dst
// (reusing its capacity) and returns it: this node's own fresh descriptor
// plus a random sample of the view, at most capacity in total. Including
// the own descriptor is what lets new nodes become known — the paper's
// "contact information of the corresponding users is also exchanged". The
// planners call it with their worker's buffer and sampling scratch: it
// runs in the parallel plan phase, where two planners may read the same
// view concurrently, so the scratch must be planner-owned, not view-owned.
//
//p3q:hotpath
func (v *View) SendBufferInto(self Descriptor, rng *randx.Source, dst []Descriptor, smp *randx.Sampler) []Descriptor {
	dst = dst[:0]
	dst = append(dst, self)
	if len(v.entries) > 0 {
		for _, i := range smp.Sample(rng, len(v.entries), v.capacity-1) {
			dst = append(dst, v.entries[i])
		}
	}
	return dst
}

// Merge combines the received descriptors with the current view and keeps a
// uniform random sample of capacity entries, per the paper's "r digests
// among the 2r digests are randomly selected". Duplicates keep the freshest
// digest (highest version); the node's own descriptor is dropped.
func (v *View) Merge(received []Descriptor, rng *randx.Source) {
	sc := MergeScratch{buf: make([]Descriptor, 0, len(v.entries)+len(received))}
	v.MergeWith(received, rng, &sc)
}

// MergeWith is Merge with caller-owned working memory. The engine's shard
// committers each own one MergeScratch and merge every view of their shard
// through it, so no view carries scratch of its own.
//
// The dedupe is a linear membership scan over the flat scratch — at most
// 2r+1 candidates. Candidates keep first-occurrence order, and the
// down-sample draws exactly when the candidate count exceeds capacity.
//
//p3q:hotpath
func (v *View) MergeWith(received []Descriptor, rng *randx.Source, scratch *MergeScratch) {
	sc := scratch.buf[:0]
	for pass := 0; pass < 2; pass++ {
		src := v.entries
		if pass == 1 {
			src = received
		}
		for _, d := range src {
			if d.Node == v.self || d.Digest == nil {
				continue
			}
			dup := false
			for i := range sc {
				if sc[i].Node == d.Node {
					if d.Digest.Version > sc[i].Digest.Version {
						sc[i] = d
					}
					dup = true
					break
				}
			}
			if !dup {
				sc = append(sc, d)
			}
		}
	}
	// Uniform random subset of size capacity, in deterministic order.
	v.entries = v.entries[:0]
	if len(sc) > v.capacity {
		for _, i := range scratch.smp.Sample(rng, len(sc), v.capacity) {
			v.entries = append(v.entries, sc[i])
		}
	} else {
		v.entries = append(v.entries, sc...)
	}
	scratch.buf = sc[:0]
}

// Remove drops the descriptor of a node (e.g. one detected as departed).
func (v *View) Remove(node tagging.UserID) {
	if i := v.index(node); i >= 0 {
		v.entries = append(v.entries[:i], v.entries[i+1:]...)
	}
}
