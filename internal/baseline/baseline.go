// Package baseline implements the comparison points of the paper:
//
//   - Centralized: the centralized implementation of the protocol used as
//     the recall reference in §3.2.2 ("we run a top-10 processing in a
//     centralized implementation of our protocol and take the 10 returned
//     items for each query as relevant items"). It has global knowledge of
//     every profile, computes each user's ideal personal network offline,
//     and evaluates queries exactly;
//   - FullReplication: the storage-heavy strawman of §1 ([3]) in which
//     every user locally replicates all the profiles of her personal
//     network, giving exact local queries at a massive storage cost.
package baseline

import (
	"p3q/internal/similarity"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// Centralized is the global-knowledge reference implementation.
type Centralized struct {
	ds   *trace.Dataset
	nets [][]similarity.Neighbour
	k    int
}

// NewCentralized builds the reference over the dataset with personal
// networks of size s and top-k size k. The ideal networks are computed
// offline from global information.
func NewCentralized(ds *trace.Dataset, s, k int) *Centralized {
	return &Centralized{
		ds:   ds,
		nets: similarity.IdealNetworks(ds, s),
		k:    k,
	}
}

// NewCentralizedWithNets builds the reference reusing precomputed ideal
// networks (they are expensive; experiments share them).
func NewCentralizedWithNets(ds *trace.Dataset, nets [][]similarity.Neighbour, k int) *Centralized {
	return &Centralized{ds: ds, nets: nets, k: k}
}

// Networks returns the ideal personal networks, indexed by user.
func (c *Centralized) Networks() [][]similarity.Neighbour { return c.nets }

// K returns the configured top-k size.
func (c *Centralized) K() int { return c.k }

// TopK evaluates the query exactly over the querier's own profile plus the
// live profiles of her ideal personal network — the "relevant items" set of
// §3.2.2.
func (c *Centralized) TopK(q trace.Query) []topk.Entry {
	members := make([]tagging.UserID, 0, len(c.nets[q.Querier]))
	for _, nb := range c.nets[q.Querier] {
		members = append(members, nb.ID)
	}
	return c.TopKOverNetwork(q, members)
}

// TopKOverNetwork evaluates the query exactly over the querier's own
// profile plus the given network members' live profiles. Experiments use it
// to compare against the exact result for a node's *actual* (possibly
// unconverged) personal network.
func (c *Centralized) TopKOverNetwork(q trace.Query, members []tagging.UserID) []topk.Entry {
	snaps := make([]tagging.Snapshot, 0, len(members)+1)
	snaps = append(snaps, c.ds.Profiles[q.Querier].Snapshot())
	for _, id := range members {
		snaps = append(snaps, c.ds.Profiles[id].Snapshot())
	}
	return topk.Exact(snaps, topk.NewTagSet(q.Tags), c.k)
}

// FullReplication reports the cost of the §1 strawman: every user stores
// every profile of her personal network.
type FullReplication struct {
	ds   *trace.Dataset
	nets [][]similarity.Neighbour
}

// NewFullReplication builds the strawman over precomputed networks.
func NewFullReplication(ds *trace.Dataset, nets [][]similarity.Neighbour) *FullReplication {
	return &FullReplication{ds: ds, nets: nets}
}

// StorageActions returns the number of tagging actions user u must
// replicate to store her whole personal network (the paper's storage metric
// is the total profile length, §3.3.1).
func (f *FullReplication) StorageActions(u tagging.UserID) int {
	total := 0
	for _, nb := range f.nets[u] {
		total += f.ds.Profiles[nb.ID].Len()
	}
	return total
}

// StorageActionsTopC returns the actions replicated when only the c most
// similar profiles are stored — P3Q's approach; the ratio against
// StorageActions reproduces the "storing 10 profiles requires only 6.8% of
// the space" comparison of §3.3.1.
func (f *FullReplication) StorageActionsTopC(u tagging.UserID, c int) int {
	total := 0
	nets := f.nets[u]
	if c > len(nets) {
		c = len(nets)
	}
	for _, nb := range nets[:c] {
		total += f.ds.Profiles[nb.ID].Len()
	}
	return total
}
