package tagging

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"p3q/internal/bloom"
)

func digestOf(p *Profile) *Digest {
	return NewDigest(p.Snapshot(), bloom.DefaultBits, bloom.DefaultHashes)
}

func TestDigestContainsAllItems(t *testing.T) {
	p := NewProfile(1)
	for i := 0; i < 300; i++ {
		p.Add(ItemID(i), TagID(i%5))
	}
	d := digestOf(p)
	for _, it := range p.Items() {
		if !d.MightContainItem(it) {
			t.Fatalf("digest misses item %d (false negative)", it)
		}
	}
}

func TestDigestVersionAndOwner(t *testing.T) {
	p := NewProfile(9)
	p.Add(1, 1)
	p.Add(2, 2)
	d := digestOf(p)
	if d.Owner != 9 {
		t.Fatalf("digest owner = %d, want 9", d.Owner)
	}
	if d.Version != 2 {
		t.Fatalf("digest version = %d, want 2", d.Version)
	}
}

func TestSharesItemWith(t *testing.T) {
	a := NewProfile(1)
	b := NewProfile(2)
	for i := 0; i < 50; i++ {
		a.Add(ItemID(i), 1)
		b.Add(ItemID(i+1000), 1)
	}
	da := digestOf(a)
	if common := da.AppendCommonItems(nil, b); len(common) != 0 {
		t.Fatalf("disjoint profiles reported common items %v (extremely unlikely FP)", common)
	}
	b.Add(25, 1) // now they share item 25
	if common := da.AppendCommonItems(nil, b); !slices.Contains(common, 25) {
		t.Fatalf("shared item not detected: %v", common)
	}
}

func TestDigestSizeBytes(t *testing.T) {
	p := NewProfile(1)
	p.Add(1, 1)
	d := digestOf(p)
	want := bloom.DefaultBits/8 + UserIDBytes + 4
	if d.SizeBytes() != want {
		t.Fatalf("digest SizeBytes = %d, want %d", d.SizeBytes(), want)
	}
}

func TestDigestOfSnapshotIgnoresLaterItems(t *testing.T) {
	p := NewProfile(1)
	p.Add(1, 1)
	snap := p.Snapshot()
	p.Add(2, 1)
	d := NewDigest(snap, bloom.DefaultBits, bloom.DefaultHashes)
	if d.Version != 1 {
		t.Fatalf("snapshot digest version = %d, want 1", d.Version)
	}
	// Item 2 was added after the snapshot; a 20Kbit filter with one key
	// should essentially never false-positive on it.
	if d.MightContainItem(2) {
		t.Fatal("snapshot digest contains item added later")
	}
}

func TestDigestLowFalsePositives(t *testing.T) {
	p := NewProfile(1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		p.Add(ItemID(rng.Intn(1<<30)), 1)
	}
	d := digestOf(p)
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		it := ItemID(1<<30 + rng.Intn(1<<30)) // disjoint ID range
		if d.MightContainItem(it) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.005 {
		t.Fatalf("digest FPR = %.5f, want <= 0.005 at 500 items", rate)
	}
}

// digestsIdentical is bitwise digest equality: same owner, same version,
// same filter geometry and bit content.
func digestsIdentical(a, b *Digest) bool {
	return a.Owner == b.Owner && a.Version == b.Version && reflect.DeepEqual(a.Items, b.Items)
}

func TestDigestBuilderBuildMatchesNewDigest(t *testing.T) {
	// Build with reused scratch must be indistinguishable from NewDigest,
	// on both fill paths: a full snapshot (sorted item memo) and a partial
	// one (log-prefix dedupe through the builder's seen set).
	p := NewProfile(4)
	for i := 0; i < 50; i++ {
		p.Add(ItemID(i%17), TagID(i%3)) // duplicates exercise the dedupe
	}
	partial := p.SnapshotAt(20)
	full := p.Snapshot()
	var b DigestBuilder
	for _, s := range []Snapshot{partial, full, partial} { // reuse across calls
		got := b.Build(s, 2048, 6)
		want := NewDigest(s, 2048, 6)
		if !digestsIdentical(got, want) {
			t.Fatalf("Build(version %d) diverged from NewDigest", s.Version())
		}
	}
}

func TestDigestBuilderRebuildMatchesFresh(t *testing.T) {
	p := NewProfile(4)
	p.Add(1, 1)
	var b DigestBuilder
	d := b.Build(p.Snapshot(), 2048, 6)
	filter := d.Items
	for i := 0; i < 30; i++ {
		p.Add(ItemID(100+i), 2)
	}
	b.Rebuild(d, p.Snapshot())
	if d.Items != filter {
		t.Fatal("Rebuild replaced the filter instead of refilling it in place")
	}
	if d.Items.SizeBytes() != 2048/8 {
		t.Fatalf("Rebuild changed the filter size to %d bytes", d.Items.SizeBytes())
	}
	if want := NewDigest(p.Snapshot(), 2048, 6); !digestsIdentical(d, want) {
		t.Fatal("Rebuild diverged from a freshly built digest")
	}
}

// MightContainItem reports whether the digested profile may contain the
// item. False positives occur at the filter's FPR; false negatives never.
func (d *Digest) MightContainItem(it ItemID) bool {
	return d.Items.Test(itemKey(it))
}
