package gossip

import (
	"slices"
	"testing"

	"p3q/internal/randx"
	"p3q/internal/tagging"
)

func desc(node tagging.UserID, version int) Descriptor {
	p := tagging.NewProfile(node)
	for i := 0; i < version; i++ {
		p.Add(tagging.ItemID(i), 0)
	}
	return Descriptor{
		Node:   node,
		Digest: tagging.NewDigest(p.Snapshot(), 256, 3),
	}
}

func TestBootstrapExcludesSelfAndDuplicates(t *testing.T) {
	v := NewView(1, 5)
	v.Bootstrap([]Descriptor{desc(1, 1), desc(2, 1), desc(2, 1), desc(3, 1)})
	if v.Size() != 2 {
		t.Fatalf("view size = %d, want 2", v.Size())
	}
	for _, d := range v.Entries() {
		if d.Node == 1 {
			t.Fatal("view contains self")
		}
	}
}

// TestBootstrapAllocations pins Bootstrap's dedupe to a scan of the view
// itself: a fresh view allocates its entries once, a warm view nothing.
func TestBootstrapAllocations(t *testing.T) {
	peers := make([]Descriptor, 0, 24)
	for i := 0; i < 24; i++ {
		peers = append(peers, desc(tagging.UserID(i%12), 1)) // self and duplicates included
	}
	v := NewView(3, 10)
	fresh := func() {
		v.entries = nil
		v.Bootstrap(peers)
	}
	if n := testing.AllocsPerRun(100, fresh); n != 1 {
		t.Fatalf("fresh view: %v allocs per Bootstrap, want 1 (its entries)", n)
	}
	if n := testing.AllocsPerRun(100, func() { v.Bootstrap(peers) }); n != 0 {
		t.Fatalf("warm view: %v allocs per Bootstrap, want 0", n)
	}
	if v.Size() != 10 || v.index(3) >= 0 {
		t.Fatalf("view %v: want 10 distinct peers without self", v.Entries())
	}
}

func TestBootstrapRespectsCapacity(t *testing.T) {
	v := NewView(0, 3)
	var peers []Descriptor
	for i := 1; i <= 10; i++ {
		peers = append(peers, desc(tagging.UserID(i), 1))
	}
	v.Bootstrap(peers)
	if v.Size() != 3 {
		t.Fatalf("view size = %d, want capacity 3", v.Size())
	}
}

func TestSelectPartnerEmpty(t *testing.T) {
	v := NewView(0, 3)
	if _, ok := v.SelectPartner(randx.NewSource(1)); ok {
		t.Fatal("empty view returned a partner")
	}
}

func TestSelectPartnerUniform(t *testing.T) {
	v := NewView(0, 4)
	v.Bootstrap([]Descriptor{desc(1, 1), desc(2, 1), desc(3, 1), desc(4, 1)})
	rng := randx.NewSource(2)
	counts := make(map[tagging.UserID]int)
	for i := 0; i < 4000; i++ {
		d, ok := v.SelectPartner(rng)
		if !ok {
			t.Fatal("partner selection failed")
		}
		counts[d.Node]++
	}
	for id, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("partner %d selected %d/4000 times, want ~1000", id, c)
		}
	}
}

func TestSendBufferIncludesSelfFirst(t *testing.T) {
	v := NewView(9, 4)
	v.Bootstrap([]Descriptor{desc(1, 1), desc(2, 1), desc(3, 1)})
	self := desc(9, 5)
	buf := v.SendBuffer(self, randx.NewSource(3))
	if len(buf) == 0 || buf[0].Node != 9 {
		t.Fatal("send buffer does not lead with the own descriptor")
	}
	if len(buf) > v.Capacity() {
		t.Fatalf("send buffer size %d exceeds capacity %d", len(buf), v.Capacity())
	}
}

func TestMergeCapacityAndNoSelf(t *testing.T) {
	v := NewView(0, 3)
	v.Bootstrap([]Descriptor{desc(1, 1), desc(2, 1), desc(3, 1)})
	v.Merge([]Descriptor{desc(0, 9), desc(4, 1), desc(5, 1)}, randx.NewSource(4))
	if v.Size() > 3 {
		t.Fatalf("view size %d exceeds capacity", v.Size())
	}
	for _, d := range v.Entries() {
		if d.Node == 0 {
			t.Fatal("merge admitted the own descriptor")
		}
	}
}

func TestMergeNoDuplicates(t *testing.T) {
	v := NewView(0, 10)
	v.Bootstrap([]Descriptor{desc(1, 1), desc(2, 1)})
	v.Merge([]Descriptor{desc(1, 1), desc(2, 1), desc(3, 1)}, randx.NewSource(5))
	seen := make(map[tagging.UserID]bool)
	for _, d := range v.Entries() {
		if seen[d.Node] {
			t.Fatalf("duplicate descriptor for node %d", d.Node)
		}
		seen[d.Node] = true
	}
	if v.Size() != 3 {
		t.Fatalf("view size = %d, want 3", v.Size())
	}
}

func TestMergeKeepsFreshestDigest(t *testing.T) {
	v := NewView(0, 10)
	v.Bootstrap([]Descriptor{desc(1, 2)})
	v.Merge([]Descriptor{desc(1, 7)}, randx.NewSource(6))
	if v.Entries()[0].Digest.Version != 7 {
		t.Fatalf("kept version %d, want freshest 7", v.Entries()[0].Digest.Version)
	}
	// Older arrival must not downgrade.
	v.Merge([]Descriptor{desc(1, 3)}, randx.NewSource(7))
	if v.Entries()[0].Digest.Version != 7 {
		t.Fatalf("older digest downgraded the entry to %d", v.Entries()[0].Digest.Version)
	}
}

// TestMergeWithSharedScratch holds MergeWith, one scratch serving many
// views in turn as a commit shard uses it, to Merge: same views, same
// draws, and nothing allocated once the scratch is warm.
func TestMergeWithSharedScratch(t *testing.T) {
	const views, r = 8, 5
	want := make([]*View, views)
	got := make([]*View, views)
	for i := range want {
		want[i], got[i] = NewView(tagging.UserID(i), r), NewView(tagging.UserID(i), r)
	}
	var sc MergeScratch
	rngW, rngG := randx.NewSource(9), randx.NewSource(9)
	buf := make([]Descriptor, r+1)
	for round := 0; round < 40; round++ {
		for i := range want {
			for j := range buf {
				buf[j] = desc(tagging.UserID((round*7+i*3+j)%20), 1+(round+j)%4)
			}
			want[i].Merge(buf, rngW)
			got[i].MergeWith(buf, rngG, &sc)
			if !slices.Equal(got[i].Entries(), want[i].Entries()) {
				t.Fatalf("round %d view %d: MergeWith %v, Merge %v", round, i, got[i].Entries(), want[i].Entries())
			}
		}
	}
	if rngW.Uint64() != rngG.Uint64() {
		t.Fatal("MergeWith and Merge drew differently")
	}
	v := got[0]
	if n := testing.AllocsPerRun(100, func() { v.MergeWith(buf, rngG, &sc) }); n != 0 {
		t.Fatalf("warm MergeWith: %v allocs, want 0", n)
	}
}

func TestMergeDropsNilDigests(t *testing.T) {
	v := NewView(0, 5)
	v.Merge([]Descriptor{{Node: 3, Digest: nil}}, randx.NewSource(8))
	if v.Size() != 0 {
		t.Fatal("nil digest admitted to view")
	}
}

func TestRemove(t *testing.T) {
	v := NewView(0, 5)
	v.Bootstrap([]Descriptor{desc(1, 1), desc(2, 1), desc(3, 1)})
	v.Remove(2)
	if v.Size() != 2 {
		t.Fatalf("size after Remove = %d, want 2", v.Size())
	}
	for _, d := range v.Entries() {
		if d.Node == 2 {
			t.Fatal("removed node still present")
		}
	}
	v.Remove(99) // absent: no-op
	if v.Size() != 2 {
		t.Fatal("Remove of absent node changed the view")
	}
}

// exchange simulates one symmetric peer-sampling exchange between two views.
func exchange(a, b *View, da, db Descriptor, rng *randx.Source) {
	sa := a.SendBuffer(da, rng)
	sb := b.SendBuffer(db, rng)
	a.Merge(sb, rng)
	b.Merge(sa, rng)
}

func TestGossipKeepsNetworkConnected(t *testing.T) {
	// Bootstrap n nodes in a ring (worst case for connectivity) and run the
	// sampling protocol; after a few cycles every node must be reachable
	// from node 0 through view edges, and views should mix far beyond ring
	// neighbours.
	const n = 100
	const r = 8
	views := make([]*View, n)
	selves := make([]Descriptor, n)
	for i := 0; i < n; i++ {
		views[i] = NewView(tagging.UserID(i), r)
		selves[i] = desc(tagging.UserID(i), 1)
	}
	for i := 0; i < n; i++ {
		views[i].Bootstrap([]Descriptor{selves[(i+1)%n], selves[(i+2)%n]})
	}
	rng := randx.NewSource(9)
	for cycle := 0; cycle < 30; cycle++ {
		for i := 0; i < n; i++ {
			d, ok := views[i].SelectPartner(rng)
			if !ok {
				continue
			}
			exchange(views[i], views[d.Node], selves[i], selves[d.Node], rng)
		}
	}
	// BFS over view edges (undirected).
	adj := make([][]int, n)
	for i, v := range views {
		for _, d := range v.Entries() {
			adj[i] = append(adj[i], int(d.Node))
			adj[d.Node] = append(adj[d.Node], i)
		}
	}
	visited := make([]bool, n)
	queue := []int{0}
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range adj[x] {
			if !visited[y] {
				visited[y] = true
				count++
				queue = append(queue, y)
			}
		}
	}
	if count != n {
		t.Fatalf("gossip overlay disconnected: reached %d/%d nodes", count, n)
	}
}

func TestGossipInDegreeBalanced(t *testing.T) {
	// After mixing, no node should be absent from all views and no node
	// should dominate (a basic uniformity sanity check on the sampler).
	const n = 80
	const r = 8
	views := make([]*View, n)
	selves := make([]Descriptor, n)
	for i := 0; i < n; i++ {
		views[i] = NewView(tagging.UserID(i), r)
		selves[i] = desc(tagging.UserID(i), 1)
	}
	for i := 0; i < n; i++ {
		views[i].Bootstrap([]Descriptor{selves[(i+1)%n], selves[(i+7)%n], selves[(i+13)%n]})
	}
	rng := randx.NewSource(10)
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < n; i++ {
			if d, ok := views[i].SelectPartner(rng); ok {
				exchange(views[i], views[d.Node], selves[i], selves[d.Node], rng)
			}
		}
	}
	indeg := make([]int, n)
	for _, v := range views {
		for _, d := range v.Entries() {
			indeg[d.Node]++
		}
	}
	max := 0
	for _, c := range indeg {
		if c > max {
			max = c
		}
	}
	if max > 6*r {
		t.Fatalf("in-degree max %d far above the ~r expected for uniform sampling", max)
	}
}
