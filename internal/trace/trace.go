// Package trace provides the workload substrate for the P3Q reproduction: a
// synthetic collaborative-tagging trace generator standing in for the
// delicious crawl used by the paper (January 2009; 10,000 users, 101,144
// items, 31,899 tags, 9,536,635 tagging actions), plus query generation,
// profile change-sets (§3.4.1), dataset statistics, and a binary
// save/load format so a real crawl can be substituted without touching
// protocol code.
//
// # Why the synthetic trace is a faithful substitution
//
// P3Q's behaviour is driven by two properties of the trace: the overlap
// structure between user profiles (it determines similarity scores, hence
// the personal networks and who contributes to whose queries) and the
// long-tail popularity of items and tags (it determines the shape of top-k
// score distributions). The generator models both explicitly:
//
//   - users belong to interest communities; items and tags are
//     community-scoped with Zipf popularity, so users within a community
//     share many (item, tag) pairs while users across communities share few
//     — the "implicit social network" the paper exploits;
//   - each item carries a small set of canonical tags and taggers draw from
//     it with Zipf weights, reproducing the observation that an item is
//     mostly annotated with the same few tags by everyone (which is what
//     makes tag queries answerable at all);
//   - profile sizes are log-normal, matching the paper's skew (mean 249
//     items/user, >99% of users under 2,000 items).
//
// The generator takes three parameters, the user count, the mean profile
// size and the seed: the spaces scale with the user count, and the shape
// (spread, tags per item, community mix, popularity skew) is a set of
// constants calibrated once against the crawl's marginals.
package trace

import (
	"fmt"
	"math"

	"p3q/internal/randx"
	"p3q/internal/tagging"
)

// Dataset is a set of user profiles over a shared item and tag space.
// Profiles are indexed by user ID.
type Dataset struct {
	Profiles []*tagging.Profile
	NumItems int
	NumTags  int

	// gen retains the generator's community structure when the dataset is
	// synthetic, so that change-sets can add actions coherent with each
	// user's interests. It is nil for loaded datasets.
	gen *generator
}

// Users returns the number of users.
func (d *Dataset) Users() int { return len(d.Profiles) }

// Profile returns the profile of the given user.
func (d *Dataset) Profile(u tagging.UserID) *tagging.Profile { return d.Profiles[u] }

// TotalActions returns the total number of tagging actions in the dataset.
func (d *Dataset) TotalActions() int {
	n := 0
	for _, p := range d.Profiles {
		n += p.Len()
	}
	return n
}

// GenParams configures the synthetic trace generator. Everything else about
// the trace's shape is fixed by the calibration constants below and by the
// user count: the item and tag spaces and the community count scale with
// Users at the paper's ratios (10.1 items and 3.2 tags per user).
type GenParams struct {
	Users int // number of users
	// MeanItems is the mean of the log-normal number of distinct items per
	// user (the paper: 249).
	MeanItems float64
	Seed      uint64
}

// The generator's shape, calibrated once to the crawl (calibration_test.go).
const (
	// sigmaItems is the log-normal spread of the items per user; a user's
	// item count is also capped at the user count (the paper: >99% of
	// users under 2000 items).
	sigmaItems = 0.9
	// meanExtraTags is the mean number of additional tags per (user, item)
	// beyond the first: tags per item-user = 1 + Poisson(meanExtraTags).
	// The paper's trace has ~3.8 actions per (user, item).
	meanExtraTags = 2.8
	// communityMix is the probability that a user picks an item from one
	// of her own communities rather than from the global pool.
	communityMix = 0.85
	// itemZipf is the Zipf exponent of item popularity within a pool.
	itemZipf = 1.15
	// canonicalTags is the number of canonical tags attached to each item;
	// taggers draw from this set with Zipf weights.
	canonicalTags = 6
)

// DefaultGenParams returns parameters producing a trace whose normalized
// shape matches the paper's delicious crawl, scaled to the given number of
// users (10 at least).
func DefaultGenParams(users int) GenParams {
	return GenParams{
		Users: max(users, 10),
		// Scaled: the full crawl averages 249 items/user; the scaled
		// default uses 60 to keep laptop experiments fast. Experiments can
		// raise it back via -mean-items.
		MeanItems: 60,
		Seed:      1,
	}
}

// generator holds the community structure computed during generation.
type generator struct {
	// users, items and tags size the population and the item and tag
	// spaces; a profile holds 3 to users items, meanItems on average.
	users, items, tags int
	meanItems          float64
	// itemPool[c] lists the items of community c, in popularity order.
	itemPool [][]tagging.ItemID
	// tagPool[c] lists the tag vocabulary of community c, in popularity order.
	tagPool [][]tagging.TagID
	// canonical[i] is the canonical tag list of item i, most typical first.
	canonical [][]tagging.TagID
	// membership[u] lists the communities of user u (primary first).
	membership [][]int
}

// Generate builds a synthetic dataset from the parameters. Identical
// parameters (including Seed) produce identical datasets.
func Generate(p GenParams) *Dataset {
	p.Users = max(p.Users, 1)
	if p.MeanItems <= 1 {
		p.MeanItems = 10
	}
	root := randx.NewSource(p.Seed)
	g := &generator{users: p.Users, items: p.Users * 10, tags: max(p.Users*3, 64), meanItems: p.MeanItems}
	g.buildCommunities(root.Split(1), min(max(p.Users/100, 4), p.Users))
	g.buildCanonicalTags(root.Split(2))

	d := &Dataset{
		Profiles: make([]*tagging.Profile, p.Users),
		NumItems: g.items,
		NumTags:  g.tags,
		gen:      g,
	}
	g.membership = make([][]int, p.Users)
	commZipf := randx.NewZipf(root.Split(3), 1.1, len(g.itemPool))
	for u := 0; u < p.Users; u++ {
		rng := root.Split(1000 + uint64(u))
		g.membership[u] = g.pickCommunities(rng, commZipf)
		prof := tagging.NewProfile(tagging.UserID(u))
		g.fillProfile(rng, prof, g.membership[u], g.profileSize(rng))
		d.Profiles[u] = prof
	}
	return d
}

// buildCommunities assigns every item and tag to a community. Community
// sizes follow a mild power law so that a few broad interests dominate, as
// in real tagging systems.
func (g *generator) buildCommunities(rng *randx.Source, communities int) {
	weights := make([]float64, communities)
	for c := range weights {
		weights[c] = 1 / float64(c+1)
	}
	g.itemPool = make([][]tagging.ItemID, communities)
	for i := 0; i < g.items; i++ {
		c := rng.WeightedChoice(weights)
		g.itemPool[c] = append(g.itemPool[c], tagging.ItemID(i))
	}
	g.tagPool = make([][]tagging.TagID, communities)
	for t := 0; t < g.tags; t++ {
		c := rng.WeightedChoice(weights)
		g.tagPool[c] = append(g.tagPool[c], tagging.TagID(t))
	}
	// Guarantee non-empty pools: communities that drew nothing borrow the
	// global head element so samplers never face an empty pool.
	for c := 0; c < communities; c++ {
		if len(g.itemPool[c]) == 0 {
			g.itemPool[c] = append(g.itemPool[c], tagging.ItemID(c%g.items))
		}
		if len(g.tagPool[c]) == 0 {
			g.tagPool[c] = append(g.tagPool[c], tagging.TagID(c%g.tags))
		}
	}
}

// buildCanonicalTags gives each item its canonical tag list, drawn from the
// vocabulary of the item's community with Zipf weights.
func (g *generator) buildCanonicalTags(rng *randx.Source) {
	g.canonical = make([][]tagging.TagID, g.items)
	// Precompute a Zipf sampler per community vocabulary size on demand.
	for c, pool := range g.itemPool {
		vocab := g.tagPool[c]
		z := randx.NewZipf(rng.Split(uint64(c)), 1.2, len(vocab))
		for _, it := range pool {
			n := min(canonicalTags, len(vocab))
			seen := make(map[tagging.TagID]struct{}, n)
			tags := make([]tagging.TagID, 0, n)
			for tries := 0; len(tags) < n && tries < 20*n; tries++ {
				tg := vocab[z.Draw()]
				if _, dup := seen[tg]; dup {
					continue
				}
				seen[tg] = struct{}{}
				tags = append(tags, tg)
			}
			if len(tags) == 0 {
				tags = append(tags, vocab[0])
			}
			g.canonical[it] = tags
		}
	}
}

// pickCommunities returns 1-3 communities for a user: a Zipf-weighted
// primary plus up to two uniform secondaries.
func (g *generator) pickCommunities(rng *randx.Source, commZipf *randx.Zipf) []int {
	comms := []int{commZipf.Draw()}
	for len(comms) < 3 && rng.Bool(0.4) {
		c := rng.Intn(len(g.itemPool))
		dup := false
		for _, x := range comms {
			if x == c {
				dup = true
				break
			}
		}
		if !dup {
			comms = append(comms, c)
		}
	}
	return comms
}

// profileSize draws the number of distinct items for one user.
func (g *generator) profileSize(rng *randx.Source) int {
	// Parameterize the log-normal so its mean is meanItems:
	// E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
	mu := lnMean(g.meanItems, sigmaItems)
	n := int(rng.LogNormal(mu, sigmaItems))
	return min(max(n, 3), g.users)
}

func lnMean(mean, sigma float64) float64 {
	return math.Log(mean) - sigma*sigma/2
}

// fillProfile adds nItems distinct items (with their tags) to the profile.
func (g *generator) fillProfile(rng *randx.Source, prof *tagging.Profile, comms []int, nItems int) {
	// Per-community item samplers; the first community is the primary and
	// receives most of the weight.
	commWeights := make([]float64, len(comms))
	for i := range comms {
		commWeights[i] = 1 / float64(i+1)
	}
	samplers := make([]*randx.Zipf, len(comms))
	for i, c := range comms {
		samplers[i] = randx.NewZipf(rng.Split(uint64(100+i)), itemZipf, len(g.itemPool[c]))
	}
	globalZipf := randx.NewZipf(rng.Split(999), itemZipf, g.items)

	tagZipf := randx.NewZipf(rng.Split(777), 1.3, 64)
	for added, tries := 0, 0; added < nItems && tries < 50*nItems; tries++ {
		var it tagging.ItemID
		if rng.Bool(communityMix) {
			ci := rng.WeightedChoice(commWeights)
			pool := g.itemPool[comms[ci]]
			it = pool[samplers[ci].Draw()]
		} else {
			it = tagging.ItemID(globalZipf.Draw())
		}
		if prof.HasItem(it) {
			continue
		}
		g.tagItem(rng, tagZipf, prof, it)
		added++
	}
}

// tagItem adds 1 + Poisson(meanExtraTags) tags on the item, drawn from its
// canonical list with Zipf weights (most typical tags first).
func (g *generator) tagItem(rng *randx.Source, tagZipf *randx.Zipf, prof *tagging.Profile, it tagging.ItemID) {
	canon := g.canonical[it]
	n := 1 + rng.Poisson(meanExtraTags)
	if n > len(canon) {
		n = len(canon)
	}
	for added, tries := 0, 0; added < n && tries < 20*n; tries++ {
		tg := canon[tagZipf.Draw()%len(canon)]
		if prof.Add(it, tg) {
			added++
		}
	}
}

// String summarizes the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("dataset(users=%d items=%d tags=%d actions=%d)",
		d.Users(), d.NumItems, d.NumTags, d.TotalActions())
}
