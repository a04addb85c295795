package tagging

import "p3q/internal/bloom"

// Digest is the compact summary of a profile exchanged by the gossip
// protocol before any full profile is transmitted (§2.1). It contains the
// owner's ID, a Bloom filter over the *items* tagged by the owner (tags are
// deliberately omitted to keep digests small), and the profile version at
// encode time, which lets a receiver detect that a profile it already knows
// has changed ("if Digest(ul) does not change", Algorithm 1).
type Digest struct {
	Owner   UserID
	Items   *bloom.Filter
	Version int // profile length when the digest was produced
}

// NewDigest builds the digest of the snapshot with the given Bloom geometry.
func NewDigest(s Snapshot, mBits, kHashes int) *Digest {
	var b DigestBuilder
	return b.Build(s, mBits, kHashes)
}

// DigestBuilder builds digests with reusable scratch. The zero value is
// ready to use. A builder is not safe for concurrent use; own one per
// goroutine (the engine keeps one per restore/rebuild site).
type DigestBuilder struct {
	items []ItemID // visible items of a stale snapshot
}

// Build returns a fresh digest of the snapshot, reusing the builder's
// scratch. The result is identical to NewDigest.
func (b *DigestBuilder) Build(s Snapshot, mBits, kHashes int) *Digest {
	f := bloom.New(mBits, kHashes)
	b.fill(f, s)
	return &Digest{Owner: s.Owner(), Items: f, Version: s.Version()}
}

// Rebuild re-digests the snapshot into d in place, resetting and refilling
// the existing Bloom filter instead of allocating a new one. The filter's
// geometry is kept.
//
// Aliasing hazard: digests are shared by pointer — a node's neighbours hold
// *Digest references in their views and personal networks. Rebuild mutates
// the pointed-to digest, so it is only safe for digests that have never
// escaped (e.g. scratch digests owned by a single builder), never for a
// node's published digest.
func (b *DigestBuilder) Rebuild(d *Digest, s Snapshot) {
	d.Items.Reset()
	b.fill(d.Items, s)
	d.Owner = s.Owner()
	d.Version = s.Version()
}

// fill adds the snapshot's distinct items to the filter: the profile's item
// column for a fresh snapshot, the visible item runs of the action-key
// column (collected into the reusable scratch) for a stale one. Either way
// each distinct item is added exactly once.
func (b *DigestBuilder) fill(f *bloom.Filter, s Snapshot) {
	items := s.p.itemsSorted
	if !s.fresh() {
		b.items = s.appendItems(b.items[:0])
		items = b.items
	}
	for _, it := range items {
		f.Add(itemKey(it))
	}
}

// itemKey widens an item ID into the 64-bit key space of the Bloom filter.
// The filter's own hashing mixes the key, so identity widening suffices.
func itemKey(it ItemID) uint64 { return uint64(it) }

// AppendCommonItems appends the items of p that the digest may contain —
// the common-item estimate of Algorithm 1 (false positives possible at the
// Bloom filter's rate, false negatives never) — into dst (reusing its
// capacity), in ascending order, and returns it. An empty result is the
// first-step test of Algorithm 1: a user with no common item "simply does
// not qualify" as a neighbour candidate.
//
//p3q:hotpath
func (d *Digest) AppendCommonItems(dst []ItemID, p *Profile) []ItemID {
	dst = dst[:0]
	for i, h := range p.itemHashes {
		if d.Items.TestHash(h) {
			dst = append(dst, p.itemsSorted[i])
		}
	}
	return dst
}

// SizeBytes returns the wire size of the digest: the Bloom filter plus the
// owner ID and a 4-byte version counter.
func (d *Digest) SizeBytes() int {
	return d.Items.SizeBytes() + UserIDBytes + 4
}

// DigestRef identifies a digest without shipping its bits: the owner and
// the profile version it was built from. Profiles are append-only, so
// (owner, version) reconstructs the digest bit-exactly wherever the
// dataset is held — the collapse the checkpoint uses for stored snapshots
// and the wire protocol for every digest it exchanges. Bytes is the §3.3
// wire cost of the digest the reference stands for, which is what the
// traffic accounting charges. The field widths are the wire's.
type DigestRef struct {
	Owner   UserID
	Version uint32
	Bytes   uint32
}

// Ref returns the digest's reference.
func (d *Digest) Ref() DigestRef {
	return DigestRef{Owner: d.Owner, Version: uint32(d.Version), Bytes: uint32(d.SizeBytes())}
}
