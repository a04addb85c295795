package trace

import (
	"p3q/internal/randx"
	"p3q/internal/tagging"
)

// Change is a set of new tagging actions for one user, modelling the
// profile dynamics of §3.4.1 ("every week more than 3000 users change their
// profiles"; on the simulated day, "1540 users changed their profiles with
// an average of 8 new tagging actions per profile", max 268).
type Change struct {
	User    tagging.UserID
	Actions []tagging.Action
}

// ChangeParams configures a change-set draw.
type ChangeParams struct {
	// FracUsers is the fraction of users that change their profile.
	// The paper's simulated day: 1540/10000 = 0.154.
	FracUsers float64
	// MeanNew is the mean number of new tagging actions per changing user
	// (paper: 8). Sizes are log-normal with this mean.
	MeanNew float64
	// SigmaNew is the log-normal sigma of the per-user change size.
	SigmaNew float64
	// MaxNew caps the per-user change size (paper: 268).
	MaxNew int
	Seed   uint64
}

// DefaultChangeParams mirrors the paper's simulated day.
func DefaultChangeParams() ChangeParams {
	return ChangeParams{FracUsers: 0.154, MeanNew: 8, SigmaNew: 1.0, MaxNew: 268, Seed: 99}
}

// GenerateChanges draws a change-set without applying it. For synthetic
// datasets the new actions stay coherent with each user's communities
// (users keep tagging the kind of items they always tagged); for loaded
// datasets the actions are drawn from the global item space with the item's
// existing tags when possible.
func GenerateChanges(d *Dataset, p ChangeParams) []Change {
	if p.FracUsers <= 0 {
		return nil
	}
	if p.FracUsers > 1 {
		p.FracUsers = 1
	}
	if p.MeanNew < 1 {
		p.MeanNew = 1
	}
	if p.SigmaNew <= 0 {
		p.SigmaNew = 0.8
	}
	if p.MaxNew < 1 {
		p.MaxNew = 1
	}
	root := randx.NewSource(p.Seed)
	n := d.Users()
	k := int(float64(n)*p.FracUsers + 0.5)
	who := root.Split(1).Sample(n, k)

	out := make([]Change, 0, k)
	mu := lnMean(p.MeanNew, p.SigmaNew)
	for _, u := range who {
		rng := root.Split(2000 + uint64(u))
		size := int(rng.LogNormal(mu, p.SigmaNew))
		if size < 1 {
			size = 1
		}
		if size > p.MaxNew {
			size = p.MaxNew
		}
		actions := d.drawNewActions(rng, tagging.UserID(u), size)
		if len(actions) > 0 {
			out = append(out, Change{User: tagging.UserID(u), Actions: actions})
		}
	}
	return out
}

// drawNewActions generates up to size actions not already in the user's
// profile.
func (d *Dataset) drawNewActions(rng *randx.Source, u tagging.UserID, size int) []tagging.Action {
	prof := d.Profiles[u]
	var actions []tagging.Action
	seen := make(map[uint64]struct{}, size)
	for tries := 0; len(actions) < size && tries < 40*size; tries++ {
		var it tagging.ItemID
		if d.gen != nil {
			comms := d.gen.membership[u]
			c := comms[rng.Intn(len(comms))]
			pool := d.gen.itemPool[c]
			it = pool[rng.Intn(len(pool))]
		} else {
			it = tagging.ItemID(rng.Intn(d.NumItems))
		}
		tg := d.pickTagFor(rng, it)
		a := tagging.Action{Item: it, Tag: tg}
		if prof.Has(it, tg) {
			continue
		}
		if _, dup := seen[a.Key()]; dup {
			continue
		}
		seen[a.Key()] = struct{}{}
		actions = append(actions, a)
	}
	return actions
}

func (d *Dataset) pickTagFor(rng *randx.Source, it tagging.ItemID) tagging.TagID {
	if d.gen != nil {
		canon := d.gen.canonical[it]
		return canon[rng.Intn(len(canon))]
	}
	return tagging.TagID(rng.Intn(d.NumTags))
}

// Apply appends the change's actions to the owner's profile and returns the
// number of actions actually added (duplicates are skipped).
func (c Change) Apply(d *Dataset) int {
	added, _ := d.Profiles[c.User].AddAll(c.Actions)
	return added
}

// ApplyChanges applies every change and returns the total number of actions
// added.
func ApplyChanges(d *Dataset, changes []Change) int {
	total := 0
	for _, c := range changes {
		total += c.Apply(d)
	}
	return total
}
