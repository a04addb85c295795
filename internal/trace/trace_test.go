package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"p3q/internal/tagging"
)

func smallParams(seed uint64) GenParams {
	p := DefaultGenParams(200)
	p.MeanItems = 25
	p.Seed = seed
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallParams(5))
	b := Generate(smallParams(5))
	if a.Users() != b.Users() || a.TotalActions() != b.TotalActions() {
		t.Fatalf("same seed produced different datasets: %v vs %v", a, b)
	}
	for u := 0; u < a.Users(); u++ {
		pa, pb := a.Profiles[u], b.Profiles[u]
		if pa.Len() != pb.Len() {
			t.Fatalf("user %d profile lengths differ: %d vs %d", u, pa.Len(), pb.Len())
		}
		for i, act := range pa.Actions() {
			if pb.Actions()[i] != act {
				t.Fatalf("user %d action %d differs", u, i)
			}
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a := Generate(smallParams(1))
	b := Generate(smallParams(2))
	if a.TotalActions() == b.TotalActions() {
		// Lengths could rarely coincide; check contents too.
		same := true
		for u := 0; u < a.Users() && same; u++ {
			if a.Profiles[u].Len() != b.Profiles[u].Len() {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical datasets")
		}
	}
}

func TestGenerateProfilesNonEmpty(t *testing.T) {
	d := Generate(smallParams(3))
	for u, p := range d.Profiles {
		if p.Len() < 3 {
			t.Fatalf("user %d has %d actions, want >= 3", u, p.Len())
		}
		if p.Owner() != tagging.UserID(u) {
			t.Fatalf("profile %d has owner %d", u, p.Owner())
		}
	}
}

func TestGenerateIDsWithinSpace(t *testing.T) {
	d := Generate(smallParams(4))
	for _, p := range d.Profiles {
		for _, a := range p.Actions() {
			if int(a.Item) >= d.NumItems {
				t.Fatalf("item %d outside space %d", a.Item, d.NumItems)
			}
			if int(a.Tag) >= d.NumTags {
				t.Fatalf("tag %d outside space %d", a.Tag, d.NumTags)
			}
		}
	}
}

func TestGenerateOverlapStructure(t *testing.T) {
	// The whole point of the community structure: a user must have
	// meaningful profile overlap with at least some other users, or P3Q's
	// personal networks would be empty and queries unanswerable.
	d := Generate(smallParams(6))
	withNeighbour := 0
	for u := 0; u < d.Users(); u++ {
		best := 0
		for v := 0; v < d.Users(); v++ {
			if v == u {
				continue
			}
			if s := d.Profiles[u].CommonScore(d.Profiles[v].Snapshot()); s > best {
				best = s
			}
		}
		if best >= 2 {
			withNeighbour++
		}
	}
	frac := float64(withNeighbour) / float64(d.Users())
	if frac < 0.9 {
		t.Fatalf("only %.0f%% of users have a neighbour with score >= 2; trace has no exploitable overlap", frac*100)
	}
}

func TestGenerateLongTail(t *testing.T) {
	d := Generate(smallParams(7))
	users := make(map[tagging.ItemID]int)
	for _, p := range d.Profiles {
		for _, it := range p.Items() {
			users[it]++
		}
	}
	max, singles := 0, 0
	for _, n := range users {
		if n > max {
			max = n
		}
		if n == 1 {
			singles++
		}
	}
	if max < 10 {
		t.Fatalf("most popular item tagged by %d users; expect a heavy head", max)
	}
	if singles < len(users)/10 {
		t.Fatalf("only %d/%d items tagged once; expect a long tail", singles, len(users))
	}
}

func TestStats(t *testing.T) {
	d := Generate(smallParams(8))
	s := ComputeStats(d)
	if s.Users != d.Users() {
		t.Fatalf("stats users = %d, want %d", s.Users, d.Users())
	}
	if s.Actions != d.TotalActions() {
		t.Fatalf("stats actions = %d, want %d", s.Actions, d.TotalActions())
	}
	if s.MeanItemsPerUser < 10 || s.MeanItemsPerUser > 60 {
		t.Fatalf("mean items/user = %.1f, want near the configured 25", s.MeanItemsPerUser)
	}
	if s.MeanActionsPerItemUser < 1 {
		t.Fatalf("mean tags per (user,item) = %.2f, want >= 1", s.MeanActionsPerItemUser)
	}
	if s.ItemsUsedBy10Plus == 0 {
		t.Fatal("no item is tagged by 10+ users; head of the distribution missing")
	}
	if s.String() == "" {
		t.Fatal("Stats.String is empty")
	}
}

func TestDefaultGenParamsScales(t *testing.T) {
	d := Generate(DefaultGenParams(1000))
	if d.NumItems != 10000 || d.NumTags != 3000 {
		t.Fatalf("scaled spaces = (%d items, %d tags), want (10000, 3000)", d.NumItems, d.NumTags)
	}
	tiny := DefaultGenParams(1)
	if tiny.Users < 10 {
		t.Fatal("DefaultGenParams should clamp tiny user counts")
	}
}

func TestSanitizeDegenerateParams(t *testing.T) {
	d := Generate(GenParams{Users: 3, Seed: 1})
	if d.Users() != 3 || d.NumItems != 30 || d.NumTags != 64 {
		t.Fatalf("dataset %v, want 3 users, 30 items, 64 tags", d)
	}
	for _, p := range d.Profiles {
		if p.Len() == 0 {
			t.Fatal("degenerate parameters produced an empty profile")
		}
	}
}

func TestGenerateQueries(t *testing.T) {
	d := Generate(smallParams(9))
	qs := GenerateQueries(d, 1)
	if len(qs) != d.Users() {
		t.Fatalf("got %d queries, want %d", len(qs), d.Users())
	}
	for _, q := range qs {
		if len(q.Tags) == 0 {
			t.Fatalf("query for user %d has no tags", q.Querier)
		}
		p := d.Profiles[q.Querier]
		for _, tg := range q.Tags {
			if !p.Has(q.Item, tg) {
				t.Fatalf("query tag %d not used by querier %d on item %d", tg, q.Querier, q.Item)
			}
		}
		// The query must contain exactly the tags used on the item.
		if len(q.Tags) != len(p.TagsFor(q.Item)) {
			t.Fatalf("query for user %d has %d tags, profile has %d on item %d",
				q.Querier, len(q.Tags), len(p.TagsFor(q.Item)), q.Item)
		}
	}
}

func TestGenerateQueriesDeterministic(t *testing.T) {
	d := Generate(smallParams(10))
	a := GenerateQueries(d, 7)
	b := GenerateQueries(d, 7)
	for i := range a {
		if a[i].Querier != b[i].Querier || a[i].Item != b[i].Item {
			t.Fatal("query generation not deterministic")
		}
	}
}

func TestQueryFor(t *testing.T) {
	d := Generate(smallParams(11))
	q, ok := QueryFor(d, 3, 7)
	if !ok {
		t.Fatal("QueryFor failed on a non-empty profile")
	}
	if q.Querier != 3 {
		t.Fatalf("querier = %d, want 3", q.Querier)
	}
	all := GenerateQueries(d, 7)
	if all[3].Item != q.Item {
		t.Fatal("QueryFor disagrees with GenerateQueries for the same seed")
	}
}

func TestGenerateChanges(t *testing.T) {
	d := Generate(smallParams(12))
	p := DefaultChangeParams()
	p.Seed = 5
	changes := GenerateChanges(d, p)
	wantUsers := int(float64(d.Users())*p.FracUsers + 0.5)
	if len(changes) < wantUsers-2 || len(changes) > wantUsers {
		t.Fatalf("got %d changes, want ~%d", len(changes), wantUsers)
	}
	seen := make(map[tagging.UserID]bool)
	for _, c := range changes {
		if seen[c.User] {
			t.Fatalf("user %d changed twice", c.User)
		}
		seen[c.User] = true
		if len(c.Actions) == 0 || len(c.Actions) > p.MaxNew {
			t.Fatalf("change size %d out of (0, %d]", len(c.Actions), p.MaxNew)
		}
		for _, a := range c.Actions {
			if d.Profiles[c.User].Has(a.Item, a.Tag) {
				t.Fatal("change contains an action already in the profile")
			}
		}
	}
}

func TestApplyChanges(t *testing.T) {
	d := Generate(smallParams(13))
	before := d.TotalActions()
	p := DefaultChangeParams()
	p.Seed = 6
	changes := GenerateChanges(d, p)
	added := ApplyChanges(d, changes)
	if added <= 0 {
		t.Fatal("ApplyChanges added nothing")
	}
	if d.TotalActions() != before+added {
		t.Fatalf("total actions = %d, want %d", d.TotalActions(), before+added)
	}
	for _, c := range changes {
		for _, a := range c.Actions {
			if !d.Profiles[c.User].Has(a.Item, a.Tag) {
				t.Fatal("applied action missing from profile")
			}
		}
	}
}

func TestChangesVersionBump(t *testing.T) {
	d := Generate(smallParams(14))
	p := ChangeParams{FracUsers: 0.1, MeanNew: 4, SigmaNew: 0.5, MaxNew: 20, Seed: 3}
	changes := GenerateChanges(d, p)
	if len(changes) == 0 {
		t.Fatal("no changes generated")
	}
	c := changes[0]
	v := d.Profiles[c.User].Version()
	added := c.Apply(d)
	if d.Profiles[c.User].Version() != v+added {
		t.Fatal("profile version did not advance by the number of added actions")
	}
}

func TestGenerateChangesZeroFrac(t *testing.T) {
	d := Generate(smallParams(15))
	if got := GenerateChanges(d, ChangeParams{FracUsers: 0}); got != nil {
		t.Fatalf("FracUsers=0 produced %d changes", len(got))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := Generate(smallParams(16))
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Users() != d.Users() || got.NumItems != d.NumItems || got.NumTags != d.NumTags {
		t.Fatalf("header mismatch: %v vs %v", got, d)
	}
	for u := 0; u < d.Users(); u++ {
		pa, pb := d.Profiles[u], got.Profiles[u]
		if pa.Len() != pb.Len() {
			t.Fatalf("user %d: %d vs %d actions", u, pa.Len(), pb.Len())
		}
		for i, a := range pa.Actions() {
			if pb.Actions()[i] != a {
				t.Fatalf("user %d action %d mismatch", u, i)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("Load accepted garbage input")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("Load accepted empty input")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	d := Generate(smallParams(17))
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("Load accepted a truncated trace")
	}
}

func TestLoadedDatasetSupportsChanges(t *testing.T) {
	d := Generate(smallParams(18))
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	changes := GenerateChanges(loaded, ChangeParams{FracUsers: 0.2, MeanNew: 3, SigmaNew: 0.5, MaxNew: 10, Seed: 4})
	if len(changes) == 0 {
		t.Fatal("no changes on loaded dataset")
	}
	if ApplyChanges(loaded, changes) == 0 {
		t.Fatal("changes on loaded dataset added nothing")
	}
}

// TestGeneratorOutputPinned pins the generator byte for byte: the SHA-256
// of the saved trace at 10 users (the floor of DefaultGenParams, where the
// tag space and community counts are clamped), 60 and 1 000 users, and 400
// users at the paper's 249 items per user. A change that moves one of
// these moves every figure, example and checkpoint built on the trace.
func TestGeneratorOutputPinned(t *testing.T) {
	for _, c := range []struct {
		users     int
		meanItems float64
		sum       string
	}{
		{10, 60, "6108598e11ee3a7bcb783c3d9e4e5e7b7d916b90d8306bf359eef4fe5bc5a0a8"},
		{60, 60, "d8f5a3ed9d9bfbfa6dcca66021f51b776aaf1d4fe86f5d02e09542ddd89ffd0a"},
		{1000, 60, "7fdd05afcdd1c1ef274a02b32dbb5cfff258e48f333b4d917d0a091cb3867103"},
		{400, 249, "1aedff1c74331057a93fdd0edbe7709e6624d5195175d9379f622d79df300900"},
	} {
		p := DefaultGenParams(c.users)
		p.MeanItems = c.meanItems
		var buf bytes.Buffer
		if err := Save(&buf, Generate(p)); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.sum {
			t.Errorf("%d users, %v mean items: sha256 %s, want %s", c.users, c.meanItems, got, c.sum)
		}
	}
}
