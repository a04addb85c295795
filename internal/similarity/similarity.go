// Package similarity computes the P3Q user-similarity metric and the
// offline "ideal personal network" oracle used as ground truth by the
// evaluation (§3.2.1: "the ideal one obtained off-line using the global
// information about all users' profiles").
//
// The similarity between two users is the number of common tagging actions,
// Score(ui, uj) = |Profile(ui) ∩ Profile(uj)| — the metric of §2.1. The
// oracle builds an inverted index from (item, tag) pairs to the users that
// performed them and accumulates pairwise co-occurrence counts, which is
// dramatically cheaper than all-pairs profile intersection and scales as the
// total co-occurrence mass of the trace.
package similarity

import (
	"runtime"
	"sort"
	"sync"

	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// Neighbour is a scored candidate for a user's personal network.
type Neighbour struct {
	ID    tagging.UserID
	Score int
}

// Index maps every tagging action to the users that performed it.
type Index struct {
	byAction map[uint64][]tagging.UserID
	users    int
}

// Build constructs the inverted index of the dataset.
func Build(d *trace.Dataset) *Index {
	ix := &Index{
		byAction: make(map[uint64][]tagging.UserID, d.TotalActions()),
		users:    d.Users(),
	}
	for _, p := range d.Profiles {
		u := p.Owner()
		for _, a := range p.Actions() {
			k := a.Key()
			ix.byAction[k] = append(ix.byAction[k], u)
		}
	}
	return ix
}

// CoScores returns, for the user u, the similarity score with every user
// sharing at least one action with her. u itself is excluded.
func (ix *Index) CoScores(p *tagging.Profile) map[tagging.UserID]int {
	out := make(map[tagging.UserID]int)
	self := p.Owner()
	for _, a := range p.Actions() {
		for _, v := range ix.byAction[a.Key()] {
			if v != self {
				out[v]++
			}
		}
	}
	return out
}

// TopNeighbours returns the s best neighbours of the user by similarity
// score (positive scores only), ordered by descending score with ascending
// ID as the deterministic tie-break.
func (ix *Index) TopNeighbours(p *tagging.Profile, s int) []Neighbour {
	scores := ix.CoScores(p)
	out := make([]Neighbour, 0, len(scores))
	for id, sc := range scores {
		if sc > 0 {
			out = append(out, Neighbour{ID: id, Score: sc})
		}
	}
	SortNeighbours(out)
	if len(out) > s {
		// A copy, not out[:s]: the network outlives the call, and out is
		// sized to every co-scored user.
		out = append(make([]Neighbour, 0, s), out[:s]...)
	}
	return out
}

// SortNeighbours orders neighbours by descending score, ascending ID.
func SortNeighbours(ns []Neighbour) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Score != ns[j].Score {
			return ns[i].Score > ns[j].Score
		}
		return ns[i].ID < ns[j].ID
	})
}

// IdealNetworks computes the ideal personal network (top-s neighbours) of
// every user, in parallel across CPUs. The result is indexed by user ID and
// fully deterministic.
func IdealNetworks(d *trace.Dataset, s int) [][]Neighbour {
	ix := Build(d)
	return IdealNetworksWithIndex(d, ix, s)
}

// IdealNetworksWithIndex is IdealNetworks with a pre-built index, for
// callers that reuse the index across calls.
func IdealNetworksWithIndex(d *trace.Dataset, ix *Index, s int) [][]Neighbour {
	n := d.Users()
	out := make([][]Neighbour, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				out[u] = ix.TopNeighbours(d.Profiles[u], s)
			}
		}()
	}
	for u := 0; u < n; u++ {
		next <- u
	}
	close(next)
	wg.Wait()
	return out
}
