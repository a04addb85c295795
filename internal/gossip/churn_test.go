package gossip

import (
	"testing"

	"p3q/internal/randx"
	"p3q/internal/tagging"
)

// Churn-facing behaviour of the peer sampling layer.

func TestViewHealsAfterRemovals(t *testing.T) {
	// Remove half of a view's contacts (departures) and keep gossiping with
	// the survivors: the view must fill back up to capacity.
	const n = 60
	const r = 8
	views := make([]*View, n)
	selves := make([]Descriptor, n)
	for i := 0; i < n; i++ {
		views[i] = NewView(tagging.UserID(i), r)
		selves[i] = desc(tagging.UserID(i), 1)
	}
	for i := 0; i < n; i++ {
		views[i].Bootstrap([]Descriptor{selves[(i+1)%n], selves[(i+2)%n], selves[(i+3)%n]})
	}
	rng := randx.NewSource(21)
	for cycle := 0; cycle < 20; cycle++ {
		for i := 0; i < n; i++ {
			if d, ok := views[i].SelectPartner(rng); ok {
				exchange(views[i], views[d.Node], selves[i], selves[d.Node], rng)
			}
		}
	}
	// Damage node 0's view heavily.
	for _, d := range append([]Descriptor(nil), views[0].Entries()...) {
		if d.Node%2 == 0 {
			views[0].Remove(d.Node)
		}
	}
	damaged := views[0].Size()
	for cycle := 0; cycle < 15; cycle++ {
		if d, ok := views[0].SelectPartner(rng); ok {
			exchange(views[0], views[d.Node], selves[0], selves[d.Node], rng)
		}
	}
	if views[0].Size() <= damaged {
		t.Fatalf("view did not heal: %d -> %d entries", damaged, views[0].Size())
	}
	if views[0].Size() != r {
		t.Fatalf("healed view has %d entries, want capacity %d", views[0].Size(), r)
	}
}

func TestFreshDigestVersionsPropagate(t *testing.T) {
	// A node whose profile changes ships a fresher self-descriptor; after a
	// few exchanges other views must carry the newer version.
	const n = 30
	const r = 6
	views := make([]*View, n)
	selves := make([]Descriptor, n)
	for i := 0; i < n; i++ {
		views[i] = NewView(tagging.UserID(i), r)
		selves[i] = desc(tagging.UserID(i), 1)
	}
	for i := 0; i < n; i++ {
		views[i].Bootstrap([]Descriptor{selves[(i+1)%n], selves[(i+5)%n], selves[(i+9)%n]})
	}
	rng := randx.NewSource(22)
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < n; i++ {
			if d, ok := views[i].SelectPartner(rng); ok {
				exchange(views[i], views[d.Node], selves[i], selves[d.Node], rng)
			}
		}
	}
	// Node 0 updates her profile: version 1 -> 9.
	selves[0] = desc(0, 9)
	for cycle := 0; cycle < 20; cycle++ {
		for i := 0; i < n; i++ {
			if d, ok := views[i].SelectPartner(rng); ok {
				exchange(views[i], views[d.Node], selves[i], selves[d.Node], rng)
			}
		}
	}
	fresh, stale := 0, 0
	for i := 1; i < n; i++ {
		for _, d := range views[i].Entries() {
			if d.Node != 0 {
				continue
			}
			if d.Digest.Version >= 9 {
				fresh++
			} else {
				stale++
			}
		}
	}
	if fresh == 0 {
		t.Fatal("no view carries node 0's fresh digest after 20 cycles")
	}
	if stale > fresh {
		t.Fatalf("stale digests (%d) outnumber fresh ones (%d)", stale, fresh)
	}
}

func TestSendBufferWithEmptyView(t *testing.T) {
	v := NewView(3, 5)
	buf := v.SendBufferInto(desc(3, 1), randx.NewSource(23), nil, new(randx.Sampler))
	if len(buf) != 1 || buf[0].Node != 3 {
		t.Fatalf("empty-view send buffer = %v, want just self", buf)
	}
}

func TestMergeIntoEmptyView(t *testing.T) {
	v := NewView(0, 4)
	v.Merge([]Descriptor{desc(1, 1), desc(2, 1)}, randx.NewSource(24))
	if v.Size() != 2 {
		t.Fatalf("merge into empty view gave %d entries", v.Size())
	}
}
