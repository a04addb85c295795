package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"p3q/internal/randx"
	"p3q/internal/sim"
	"p3q/internal/tagging"
)

// partnersByAge is the naive reference of the lazy-mode partner preference
// (§2.2.1): the ranking positions of every neighbour, oldest gossip first,
// ties by ascending ID. The engine never builds this ordering
// (selectTopPartner only materializes its oldest groups); the tests do.
func partnersByAge(pn *PersonalNetwork) []uint32 {
	order := make([]uint32, len(pn.ranking))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(i, j uint32) int {
		a, b := &pn.ranking[i], &pn.ranking[j]
		if c := cmp.Compare(a.last, b.last); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return order
}

// oraclePartnerProbe is the partner selection selectTopPartner replaced,
// kept literally as the test oracle: order the whole personal network by
// (last, ID), copy, shuffle, stable-sort by age, then probe from the head.
func oraclePartnerProbe(pn *PersonalNetwork, self tagging.UserID, nw *sim.Network, maxProbes int,
	rng *randx.Source, ledger *sim.Ledger) (partner tagging.UserID, ok bool, resets []tagging.UserID) {
	partners, ranking := partnersByAge(pn), pn.ranking
	rng.Shuffle(len(partners), func(i, j int) { partners[i], partners[j] = partners[j], partners[i] })
	slices.SortStableFunc(partners, func(i, j uint32) int { return cmp.Compare(ranking[j].Age(), ranking[i].Age()) })
	probes := 0
	for _, pi := range partners {
		pe := &ranking[pi]
		if probes >= maxProbes {
			break
		}
		if !nw.Online(pe.ID) {
			ledger.Send(self, pe.ID, sim.MsgProbe, 0)
			probes++
			resets = append(resets, pe.ID)
			continue
		}
		return pe.ID, true, resets
	}
	return 0, false, resets
}

// selectionEngine returns the slice of an engine that selectTopPartner
// reads — liveness, MaxProbes and the node table — over neighbour IDs
// 1..pool, with node 0 owning pn.
func selectionEngine(pn *PersonalNetwork, pool, maxProbes int) (*Engine, *Node) {
	e := &Engine{cfg: Config{MaxProbes: maxProbes}, net: sim.NewNetwork(pool + 1), nodes: make([]*Node, pool+1)}
	for id := range e.nodes {
		e.nodes[id] = &Node{id: tagging.UserID(id)}
	}
	e.nodes[0].pnet = pn
	return e, e.nodes[0]
}

var partnerOracleSizes = [...]int{50, 1, 2, 7, 100, 1000}

// TestPartnerSelectionMatchesOracle holds selectTopPartner to the
// sort-everything implementation it replaced. Every seed builds three
// personal networks (s cycling through 1, 2, 7, 50, 100, 1000; s = 1000 on
// every twelfth seed only, to keep the run short) from random
// Upsert/Rebalance/Touch/ResetTimestamp histories that are tie-heavy on
// purpose — an untouched bootstrap network where every stamp is equal, a
// few big batches each upserted at one clock value, a long run of small
// exchanges with receiver-side resets joining the youngest group — and
// then, over rounds of further mutation, picks a partner both ways under a
// random offline set (none, some, most, all) with MaxProbes 1-4, through
// one reused plan slot. Both must name the same partner (or none), leave the
// same probe records in the ledger in the same order and the same resets,
// and hand on an rng whose next draw is equal.
//
// Five hand mutations of selectTopPartner/appendAgeGroup each fail it at
// seed 1: skipping the ID ordering inside a group, walking the permutation
// backwards, forgetting to advance offset, starting the next group at
// last instead of last+1 (>= for >), and probing one past MaxProbes.
func TestPartnerSelectionMatchesOracle(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	var p topPlan
	var w planWorker
	for seed := 1; seed <= seeds; seed++ {
		s := partnerOracleSizes[(seed-1)%len(partnerOracleSizes)]
		if s == 1000 && seed%12 != 0 {
			s = 10 + seed%110
		}
		for history := 0; history < 3; history++ {
			checkPartnerSelection(t, &w, &p, seed, history, s)
		}
	}
}

func checkPartnerSelection(t *testing.T, w *planWorker, p *topPlan, seed, history, s int) {
	r := rand.New(rand.NewSource(int64(3*seed + history)))
	pool := 2*s + 4 // neighbour IDs 1..pool; 0 is the node itself
	pn := NewPersonalNetwork(0, s, 0)
	member := func() tagging.UserID {
		if pn.Len() == 0 || r.Intn(8) == 0 {
			return tagging.UserID(1 + r.Intn(pool)) // maybe absent
		}
		return pn.ranking[r.Intn(pn.Len())].ID
	}
	mutate := func(batch int) {
		for i := 0; i < batch; i++ {
			pn.Upsert(tagging.UserID(1+r.Intn(pool)), 1+r.Intn(9), nil)
		}
		if r.Intn(4) > 0 {
			pn.Rebalance()
		}
		for i := r.Intn(4); i > 0; i-- {
			if r.Intn(3) == 0 {
				pn.ResetTimestamp(member())
			} else {
				pn.Touch(member())
			}
		}
	}
	switch history {
	case 0: // untouched bootstrap network: every stamp equal
		for i := 0; i < s; i++ {
			pn.Upsert(tagging.UserID(1+r.Intn(pool)), 1+r.Intn(9), nil)
		}
	case 1: // a few big batches, each at one clock value
		for i := 2 + r.Intn(3); i > 0; i-- {
			mutate(1 + r.Intn(s))
		}
	default: // long run of small exchanges
		for i := 2 * min(s, 60); i > 0; i-- {
			mutate(r.Intn(4))
		}
	}

	e, a := selectionEngine(pn, pool, 0)
	nw := e.net
	for round := 0; round < 16; round++ {
		pOff := [...]float64{0, 0.2, 0.9, 1}[r.Intn(4)]
		for id := 1; id <= pool; id++ {
			nw.SetOnline(tagging.UserID(id), r.Float64() >= pOff)
		}
		e.cfg.MaxProbes = 1 + r.Intn(4)
		rngGot := randx.NewSource(r.Uint64())
		rngWant := *rngGot

		p.resets = p.resets[:0]
		nw.InitLedger(&p.ledger)
		b := e.selectTopPartner(w, a, rngGot, p)
		ledger := nw.NewLedger()
		want, wantOK, resets := oraclePartnerProbe(pn, a.id, nw, e.cfg.MaxProbes, &rngWant, ledger)

		at := fmt.Sprintf("seed %d history %d round %d (s=%d, len=%d, MaxProbes=%d, offline %.1f)",
			seed, history, round, s, pn.Len(), e.cfg.MaxProbes, pOff)
		if (b != nil) != wantOK || (wantOK && b.id != want) {
			t.Fatalf("%s: partner found %v, oracle %d/%v", at, b != nil, want, wantOK)
		}
		if !slices.Equal(p.ledger.Records(), ledger.Records()) {
			t.Fatalf("%s: probes %v, oracle %v", at, p.ledger.Records(), ledger.Records())
		}
		if !slices.Equal(p.resets, resets) {
			t.Fatalf("%s: resets %v, oracle %v", at, p.resets, resets)
		}
		if g, w := rngGot.Uint64(), rngWant.Uint64(); g != w {
			t.Fatalf("%s: next draw %#x, oracle %#x", at, g, w)
		}

		// What a commit would do with the plan, then some more history.
		for _, id := range p.resets {
			pn.ResetTimestamp(id)
		}
		if wantOK {
			pn.Touch(want)
		}
		mutate(r.Intn(3))
	}
}
