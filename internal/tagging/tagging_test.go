package tagging

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestActionKeyRoundTrip(t *testing.T) {
	f := func(item, tag uint32) bool {
		a := Action{Item: ItemID(item), Tag: TagID(tag)}
		return ActionFromKey(a.Key()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestActionKeyInjective(t *testing.T) {
	f := func(i1, t1, i2, t2 uint32) bool {
		a := Action{Item: ItemID(i1), Tag: TagID(t1)}
		b := Action{Item: ItemID(i2), Tag: TagID(t2)}
		return (a == b) == (a.Key() == b.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProfileAddAndHas(t *testing.T) {
	p := NewProfile(7)
	if p.Owner() != 7 {
		t.Fatalf("owner = %d, want 7", p.Owner())
	}
	if !p.Add(1, 2) {
		t.Fatal("first Add returned false")
	}
	if p.Add(1, 2) {
		t.Fatal("duplicate Add returned true")
	}
	if !p.Has(1, 2) {
		t.Fatal("Has(1,2) = false after Add")
	}
	if p.Has(2, 1) {
		t.Fatal("Has(2,1) = true, never added")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
}

func TestProfileSameItemDifferentTags(t *testing.T) {
	p := NewProfile(0)
	p.Add(5, 1)
	p.Add(5, 2)
	p.Add(5, 3)
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	if p.NumItems() != 1 {
		t.Fatalf("NumItems = %d, want 1", p.NumItems())
	}
	tags := p.TagsFor(5)
	if len(tags) != 3 || tags[0] != 1 || tags[1] != 2 || tags[2] != 3 {
		t.Fatalf("TagsFor(5) = %v, want [1 2 3]", tags)
	}
}

func TestProfileVersionTracksLen(t *testing.T) {
	p := NewProfile(0)
	for i := 0; i < 10; i++ {
		p.Add(ItemID(i), 0)
		if p.Version() != p.Len() {
			t.Fatalf("Version %d != Len %d", p.Version(), p.Len())
		}
	}
}

func TestProfileItemsSorted(t *testing.T) {
	p := NewProfile(0)
	for _, it := range []ItemID{9, 3, 7, 1, 3} {
		p.Add(it, 0)
	}
	items := p.Items()
	want := []ItemID{1, 3, 7, 9}
	if len(items) != len(want) {
		t.Fatalf("Items = %v, want %v", items, want)
	}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("Items = %v, want %v", items, want)
		}
	}
}

func TestAddAllCountsOnlyNew(t *testing.T) {
	p := NewProfile(0)
	p.Add(1, 1)
	n, dup := p.AddAll([]Action{{1, 1}, {2, 2}, {2, 2}, {3, 3}})
	if n != 2 || dup != 0 {
		t.Fatalf("AddAll added %d (first duplicate at %d), want 2 (at 0)", n, dup)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
}

func TestCommonScoreSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := NewProfile(0)
		b := NewProfile(1)
		for i := 0; i < 40; i++ {
			a.Add(ItemID(rng.Intn(20)), TagID(rng.Intn(10)))
			b.Add(ItemID(rng.Intn(20)), TagID(rng.Intn(10)))
		}
		if a.CommonScore(b.Snapshot()) != b.CommonScore(a.Snapshot()) {
			t.Fatalf("CommonScore not symmetric: %d vs %d",
				a.CommonScore(b.Snapshot()), b.CommonScore(a.Snapshot()))
		}
	}
}

func TestCommonScoreSelfEqualsLen(t *testing.T) {
	p := NewProfile(0)
	for i := 0; i < 25; i++ {
		p.Add(ItemID(i%7), TagID(i))
	}
	if got := p.CommonScore(p.Snapshot()); got != p.Len() {
		t.Fatalf("self score = %d, want %d", got, p.Len())
	}
}

func TestCommonScoreDisjoint(t *testing.T) {
	a := NewProfile(0)
	b := NewProfile(1)
	a.Add(1, 1)
	a.Add(2, 2)
	b.Add(3, 3)
	b.Add(1, 9) // same item, different tag: not a common action
	if got := a.CommonScore(b.Snapshot()); got != 0 {
		t.Fatalf("disjoint score = %d, want 0", got)
	}
}

func TestCommonScoreExact(t *testing.T) {
	a := NewProfile(0)
	b := NewProfile(1)
	common := []Action{{1, 1}, {2, 5}, {9, 3}}
	for _, c := range common {
		a.Add(c.Item, c.Tag)
		b.Add(c.Item, c.Tag)
	}
	a.Add(100, 1)
	b.Add(200, 2)
	if got := a.CommonScore(b.Snapshot()); got != len(common) {
		t.Fatalf("score = %d, want %d", got, len(common))
	}
}

func TestCommonItems(t *testing.T) {
	a := NewProfile(0)
	b := NewProfile(1)
	a.Add(1, 1)
	a.Add(2, 1)
	a.Add(3, 1)
	b.Add(2, 9) // shared item even though tags differ
	b.Add(3, 1)
	b.Add(4, 1)
	got := a.CommonItems(b.Snapshot())
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("CommonItems = %v, want [2 3]", got)
	}
}

func TestSnapshotImmutableUnderAppends(t *testing.T) {
	p := NewProfile(0)
	p.Add(1, 1)
	p.Add(2, 2)
	snap := p.Snapshot()
	p.Add(3, 3)
	p.Add(1, 7)
	if snap.Len() != 2 {
		t.Fatalf("snapshot Len = %d, want 2", snap.Len())
	}
	if snap.Has(3, 3) {
		t.Fatal("snapshot sees action added after it was taken")
	}
	if snap.Has(1, 7) {
		t.Fatal("snapshot sees later tag on known item")
	}
	if !snap.Has(1, 1) || !snap.Has(2, 2) {
		t.Fatal("snapshot lost actions it should contain")
	}
}

func TestSnapshotHasItemStale(t *testing.T) {
	p := NewProfile(0)
	p.Add(1, 1)
	snap := p.Snapshot()
	p.Add(9, 1) // new item after snapshot
	if snap.HasItem(9) {
		t.Fatal("stale snapshot reports item added later")
	}
	if !snap.HasItem(1) {
		t.Fatal("stale snapshot lost existing item")
	}
}

func TestSnapshotItemsStale(t *testing.T) {
	p := NewProfile(0)
	p.Add(4, 1)
	p.Add(2, 1)
	snap := p.Snapshot()
	p.Add(9, 1)
	items := snap.Items()
	if len(items) != 2 || items[0] != 2 || items[1] != 4 {
		t.Fatalf("stale snapshot Items = %v, want [2 4]", items)
	}
}

func TestSnapshotAtClamps(t *testing.T) {
	p := NewProfile(0)
	p.Add(1, 1)
	if got := p.SnapshotAt(-5).Len(); got != 0 {
		t.Fatalf("SnapshotAt(-5).Len = %d, want 0", got)
	}
	if got := p.SnapshotAt(100).Len(); got != 1 {
		t.Fatalf("SnapshotAt(100).Len = %d, want 1", got)
	}
}

func TestSnapshotActionsOnItems(t *testing.T) {
	p := NewProfile(0)
	p.Add(1, 1)
	p.Add(1, 2)
	p.Add(2, 1)
	p.Add(3, 1)
	got := p.Snapshot().ActionsOnItems([]ItemID{1, 3})
	if len(got) != 3 {
		t.Fatalf("ActionsOnItems returned %d actions, want 3", len(got))
	}
	for _, a := range got {
		if a.Item != 1 && a.Item != 3 {
			t.Fatalf("unexpected item %d in restricted actions", a.Item)
		}
	}
}

func TestZeroSnapshotInvalid(t *testing.T) {
	var s Snapshot
	if s.Valid() {
		t.Fatal("zero snapshot reports Valid")
	}
}

func TestCommonScoreAgainstStaleSnapshot(t *testing.T) {
	a := NewProfile(0)
	b := NewProfile(1)
	a.Add(1, 1)
	b.Add(1, 1)
	snap := b.Snapshot()
	b.Add(2, 2)
	a.Add(2, 2) // common in live profiles, but not in the snapshot
	if got := a.CommonScore(snap); got != 1 {
		t.Fatalf("score vs stale snapshot = %d, want 1", got)
	}
	if got := a.CommonScore(b.Snapshot()); got != 2 {
		t.Fatalf("score vs fresh snapshot = %d, want 2", got)
	}
}

func TestWireSizes(t *testing.T) {
	if ActionBytes != 36 {
		t.Fatalf("ActionBytes = %d, want 36 (paper §3.3.1)", ActionBytes)
	}
	if got := ActionsWireSize(10); got != 360 {
		t.Fatalf("ActionsWireSize(10) = %d, want 360", got)
	}
	if got := QueryWireSize(3); got != 4+48 {
		t.Fatalf("QueryWireSize(3) = %d, want 52", got)
	}
	if got := ResultListWireSize(5, 2); got != 5*20+8 {
		t.Fatalf("ResultListWireSize(5,2) = %d, want 108", got)
	}
	if got := ItemsWireSize(3); got != 48 {
		t.Fatalf("ItemsWireSize(3) = %d, want 48", got)
	}
	if got := UsersWireSize(3); got != 12 {
		t.Fatalf("UsersWireSize(3) = %d, want 12", got)
	}
}

func TestVocabularyInterning(t *testing.T) {
	v := NewVocabulary()
	m1 := v.Tag("matrix")
	m2 := v.Tag("matrix")
	if m1 != m2 {
		t.Fatal("same tag name produced different IDs")
	}
	if v.Tag("math") == m1 {
		t.Fatal("different tag names produced the same ID")
	}
	if v.TagName(m1) != "matrix" {
		t.Fatalf("TagName = %q, want matrix", v.TagName(m1))
	}
	i1 := v.Item("http://example.com")
	if v.ItemName(i1) != "http://example.com" {
		t.Fatalf("ItemName = %q", v.ItemName(i1))
	}
	if v.NumTags() != 2 || v.NumItems() != 1 {
		t.Fatalf("counts = (%d tags, %d items), want (2, 1)", v.NumTags(), v.NumItems())
	}
}

func TestVocabularyPlaceholders(t *testing.T) {
	v := NewVocabulary()
	if got := v.TagName(42); got != "tag#42" {
		t.Fatalf("TagName(42) = %q, want tag#42", got)
	}
	if got := v.ItemName(0); got != "item#0" {
		t.Fatalf("ItemName(0) = %q, want item#0", got)
	}
}

func TestCommonScoreMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		a := NewProfile(0)
		b := NewProfile(1)
		for i := 0; i < 60; i++ {
			a.Add(ItemID(rng.Intn(15)), TagID(rng.Intn(8)))
			b.Add(ItemID(rng.Intn(15)), TagID(rng.Intn(8)))
		}
		brute := 0
		for _, act := range a.Actions() {
			if b.Has(act.Item, act.Tag) {
				brute++
			}
		}
		if got := a.CommonScore(b.Snapshot()); got != brute {
			t.Fatalf("CommonScore = %d, brute force = %d", got, brute)
		}
	}
}
