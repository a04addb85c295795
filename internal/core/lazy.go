package core

import (
	"p3q/internal/gossip"
	"p3q/internal/idtab"
	"p3q/internal/randx"
	"p3q/internal/sim"
	"p3q/internal/tagging"
)

// This file implements the lazy mode of §2.2.1: the bottom-layer peer
// sampling exchange and the top-layer 3-step profile exchange of
// Algorithm 1 that discovers and maintains personal networks.
//
// Both layers run in a plan/commit design so a lazy cycle can use every
// core — in both halves of the cycle — while staying byte-for-byte
// deterministic:
//
//   - plan: a worker pool runs the read-heavy phase for every online node
//     concurrently — partner selection, Bloom-digest filtering, common-item
//     scoring, random-view evaluation — producing a per-node intent plus a
//     sim.Ledger of the messages the node would send. Planners read only
//     the cycle-start state and draw randomness from per-(cycle, node)
//     split streams, so each plan is a pure function of the cycle-start
//     state regardless of goroutine scheduling.
//   - commit: the population is partitioned into Workers contiguous node
//     index shards, and one committer per shard walks every plan in the
//     engine's canonical permutation order, applying only the effects that
//     target its own nodes (commitShard in engine.go). A pair's effects
//     decompose into per-node intents — the initiator's view merge,
//     timestamp resets, own-side integration, gossip touch and random-view
//     contacts; the partner's view merge, peer-side integration and
//     timestamp reset — and every effect mutates only its target node
//     (cross-node inputs — profiles, normalized digests, liveness — are
//     frozen during the commit phase), so shards never contend. Commit-time
//     traffic (step-2/step-3 messages, which depend on the committed
//     network) is counted in per-shard ledgers that are added to the
//     network's counters after the parallel phase. Each node's intents
//     land in the same canonical (cycle, pair, role) order for every
//     worker count, so the output stays byte-for-byte identical.
//
// The eager mode runs on the same primitives: EagerCycle (eager.go) plans
// every (initiator, query) gossip concurrently — including the piggybacked
// top-layer maintenance exchange, planned through planTopExchange below —
// and commits through the same sharded committers in the canonical pair
// order.

// Randomness purposes of the planning phases. Each planner derives its
// streams by splitting node sources with a label that encodes the cycle
// sequence number, the purpose, and (for partner-side streams) the
// initiator, so no two derived streams in the history of a run coincide
// and no planner ever advances a shared source. The eager purposes are
// additionally split per query (see eagerStream in eager.go).
const (
	purposeView          uint64 = iota // initiator's bottom-layer stream
	purposeViewReply                   // partner's bottom-layer stream
	purposeTop                         // initiator's top-layer stream
	purposeTopReply                    // partner's top-layer stream
	purposeEagerDest                   // initiator's destination-selection stream
	purposeEagerSplit                  // destination's remaining-list split stream
	purposeEagerAdv                    // initiator's piggybacked advertise stream
	purposeEagerAdvReply               // destination's piggybacked advertise stream
)

// planLabel packs (cycle sequence, purpose, peer) into a unique split
// label: peer occupies the low 32 bits, the purpose the next 3, and the
// cycle sequence the rest. Initiator-side streams use peer 0.
func planLabel(seq, purpose uint64, peer tagging.UserID) uint64 {
	return seq<<35 | purpose<<32 | uint64(peer)
}

// viewPlan is one node's planned bottom-layer exchange: the selected
// partner, both send buffers (computed against the cycle-start views, runs
// of the planning worker's arena) and the split streams the commit-time
// merges will draw from. Plans live in the engine's pooled vplans slice.
// The exchange's messages follow from the plan alone — a failed probe of a
// departed partner, or the two buffers — so the commit records them.
type viewPlan struct {
	used       bool // false: slot idle this cycle (offline node or empty view)
	partner    tagging.UserID
	dead       bool // partner departed: drop it from the view
	bufA, bufB []gossip.Descriptor
	rngA, rngB randx.Source
}

// planViewInto plans one bottom-layer gossip for node a into the pooled
// plan slot p: pick a uniform partner from the random view, swap r digests,
// re-sample both views. The slot stays unused when the view is empty.
//
//p3q:phase plan
//p3q:hotpath
func (e *Engine) planViewInto(w *planWorker, a *Node, seq uint64, p *viewPlan) {
	p.used = false
	p.rngA = a.rng.Derive(planLabel(seq, purposeView, 0))
	rng := &p.rngA
	d, ok := a.view.SelectPartner(rng)
	if !ok {
		return
	}
	p.used = true
	p.dead = false
	p.partner = d.Node
	if !e.net.Online(d.Node) {
		// Departed contact: drop it so the view heals (§3.4.2).
		p.dead = true
		return
	}
	b := e.nodes[d.Node]
	p.rngB = b.rng.Derive(planLabel(seq, purposeViewReply, a.id))
	p.bufA = a.view.SendBufferInto(a.descriptor(), rng, w.descs.open(a.view.Capacity()), &w.smp)
	w.descs.close(p.bufA)
	p.bufB = b.view.SendBufferInto(b.descriptor(), &p.rngB, w.descs.open(b.view.Capacity()), &w.smp)
	w.descs.close(p.bufB)
}

// commitViewShard applies the shard-owned effects of one planned
// bottom-layer exchange: the messages and the initiator-side view merge
// (or dead-partner removal) belong to a's shard, the partner-side merge to
// the partner's shard.
//
//p3q:phase commit
func (e *Engine) commitViewShard(a *Node, p *viewPlan, sh *commitShard) {
	if !p.used {
		return
	}
	if p.dead {
		if sh.owns(a.id) {
			sh.ledger.Send(a.id, p.partner, sim.MsgProbe, 0) // records the failed attempt
			a.view.Remove(p.partner)
		}
		return
	}
	if sh.owns(a.id) {
		sh.ledger.Send(a.id, p.partner, sim.MsgRandomView, descriptorsWireSize(p.bufA))
		sh.ledger.Send(p.partner, a.id, sim.MsgRandomView, descriptorsWireSize(p.bufB))
		a.view.MergeWith(p.bufB, &p.rngA, &sh.merge)
	}
	if sh.owns(p.partner) {
		e.nodes[p.partner].view.MergeWith(p.bufA, &p.rngB, &sh.merge)
	}
}

// requestBytes is the size charged for a bare "send me X" request message.
const requestBytes = 8

// descriptorsWireSize is the wire size of a peer-sampling buffer: one
// digest per descriptor.
func descriptorsWireSize(ds []gossip.Descriptor) int {
	b := 0
	for _, d := range ds {
		b += d.Digest.SizeBytes()
	}
	return b
}

// rvContact is one planned random-view evaluation: either a pure
// evaluated-cache update (a neighbour's digest shares no item) or a direct
// contact, holding the owner's scored fresh offer inline — a single offer
// has at most one result.
type rvContact struct {
	owner     tagging.UserID
	evalOnly  bool // a neighbour's digest shares no item: memoize its version only
	scored    bool // direct contact: the offer passed step 1 into res
	version   int  // evalOnly: the version memoized
	res       [1]intResult
	reqBytes  int
	respBytes int
}

// integration returns the direct contact as the one-offer integration the
// commit applies.
func (c *rvContact) integration() integration {
	n := 0
	if c.scored {
		n = 1
	}
	return integration{provider: c.owner, results: c.res[:n], reqBytes: c.reqBytes, respBytes: c.respBytes}
}

// topPlan is one node's planned top-layer gossip plus random-view
// evaluation: the probes spent finding an online partner, the symmetric
// 3-step exchange planned for both sides, and the random-view contacts.
// Like viewPlan, topPlans are pooled engine slots; resets and rv are runs
// of the planning worker's arenas.
type topPlan struct {
	used   bool             // false: slot idle this cycle (offline node)
	ledger sim.Ledger       // probes and random-view contact traffic
	resets []tagging.UserID // departed partners probed: reset their timestamps

	partner tagging.UserID
	ok      bool
	exch    exchangePlan // the symmetric 3-step exchange with the partner

	rv []rvContact
}

// selectTopPartner picks a's gossip partner of the cycle — the personal
// network neighbour with the oldest timestamp, retrying past departed ones
// up to MaxProbes (§2.2.1; nil when none answers) — and records the failed
// probes in the plan's ledger and resets. Equal timestamps (common right
// after bootstrap) are tried in random order so the first cycles do not all
// hit the lowest IDs.
//
// The probe order is "the (last, ID) ordering, shuffled, then stable-sorted
// by age", but only its head is ever built: an age group occupies the
// contiguous ranks [offset, offset+len(group)) of the (last, ID) ordering,
// so in the shuffled identity permutation (the same draws as shuffling the
// ordering itself) its members come up wherever a rank of that range
// stands, in position order. A younger group is built only when every
// member of the older one was offline.
//
//p3q:phase plan
//p3q:hotpath
func (e *Engine) selectTopPartner(w *planWorker, a *Node, rng *randx.Source, p *topPlan) *Node {
	ranking := a.pnet.ranking
	n := len(ranking)
	perm := w.partners[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, uint32(i))
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	w.partners = perm
	probes, offset, lo := 0, 0, uint64(0)
	for offset < n && probes < e.cfg.MaxProbes {
		var last uint64
		w.partners, last = a.pnet.appendAgeGroup(w.partners[:n], lo)
		group := w.partners[n:]
		left := len(group)
		for _, r := range w.partners[:n] {
			k := int(r) - offset
			if k < 0 || k >= len(group) {
				continue
			}
			pe := &ranking[group[k]]
			if e.net.Online(pe.ID) {
				return e.nodes[pe.ID]
			}
			p.ledger.Send(a.id, pe.ID, sim.MsgProbe, 0)
			probes++
			// Keep the entry (her profile stays meaningful, §3.4.2) but
			// reset the timestamp so other neighbours are tried first in
			// the following cycles.
			p.resets = append(p.resets, pe.ID)
			if left--; left == 0 || probes >= e.cfg.MaxProbes {
				break
			}
		}
		offset += len(group)
		lo = last + 1
	}
	return nil
}

// planTopInto plans one top-layer gossip for node a into the pooled plan
// slot p — select the personal network neighbour with the oldest timestamp
// (retrying past departed ones up to MaxProbes) and the symmetric 3-step
// profile exchange with her — and the scoring of a's random-view candidates
// (§2.2.1).
//
//p3q:phase plan
func (e *Engine) planTopInto(w *planWorker, a *Node, seq uint64, p *topPlan) {
	p.used = true
	p.ok = false
	entries := a.view.Entries()
	probes := min(a.pnet.Len(), e.cfg.MaxProbes)
	e.net.InitLedger(&p.ledger)
	rng := a.rng.Derive(planLabel(seq, purposeTop, 0))

	p.resets = w.resets.open(probes)
	b := e.selectTopPartner(w, a, &rng, p)
	w.resets.close(p.resets)

	// seen overlays the evaluated cache with the versions this plan already
	// scored, so the random-view pass below does not re-contact an owner
	// the top exchange just integrated.
	seen := &w.seen
	seen.Clear()
	if b != nil {
		p.partner, p.ok = b.id, true
		brng := b.rng.Derive(planLabel(seq, purposeTopReply, a.id))
		e.planTopExchangeInto(w, &p.exch, a, b, &rng, &brng, seen)
	}

	// Random-view evaluation: score the members whose digests indicate at
	// least one shared item, contacting them directly for their fresh
	// profiles (§2.2.1: "The profile of vj is obtained by directly
	// contacting vj if Digest(vj) contains at least one item tagged by ui").
	rv := w.contacts.open(len(entries))
	for _, d := range entries {
		if d.Node == a.id {
			continue
		}
		v, known := a.evaluated.Get(uint32(d.Node))
		if sv, ok := seen.Get(uint32(d.Node)); ok && (!known || sv > v) {
			v, known = sv, true
		}
		if known && int(v) >= d.Digest.Version {
			continue
		}
		entry := a.pnet.Entry(d.Node)
		if entry != nil && entry.Digest.Version >= d.Digest.Version {
			continue
		}
		if entry == nil && e.cfg.StaticNetworks {
			continue // membership frozen: no point contacting non-members
		}
		w.common = d.Digest.AppendCommonItems(w.common, a.profile)
		if len(w.common) == 0 {
			// A stranger sharing no item does not qualify (Algorithm 1,
			// line 10) and is not remembered: digests only grow and the
			// memo clears when the own profile grows, so any version of
			// hers up to this one fails the same Bloom test again. A
			// neighbour sharing no item — an explicit friend, whose score
			// is floored at 1 — is memoized, since planOffer's line-10
			// test drops strangers only.
			if entry == nil {
				continue
			}
			seen.Put(uint32(d.Node), int32(d.Digest.Version))
			rv = append(rv, rvContact{owner: d.Node, evalOnly: true, version: d.Digest.Version})
			continue
		}
		if !e.net.Online(d.Node) {
			p.ledger.Send(a.id, d.Node, sim.MsgProbe, 0)
			continue
		}
		// Direct contact: the owner serves a fresh offer of her own
		// profile. The initiating request is charged symmetrically to
		// fetchFromOwner; the response carries the fresh digest (§3.3).
		owner := e.nodes[d.Node]
		o := offer{digest: owner.digest(), snap: owner.profile.Snapshot()}
		p.ledger.Send(a.id, d.Node, sim.MsgTopDigest, requestBytes)
		p.ledger.Send(d.Node, a.id, sim.MsgTopDigest, o.digest.SizeBytes())
		// The same version of a profile has the same digest, so the common
		// items just found are the fresh offer's too.
		common := w.common
		if o.digest.Version != d.Digest.Version {
			common = nil
		}
		c := rvContact{owner: d.Node}
		c.res[0], c.reqBytes, c.respBytes, c.scored = w.planOffer(a, o, seen, common)
		rv = append(rv, c)
	}
	w.contacts.close(rv)
	p.rv = rv
}

// commitTopShard applies the shard-owned effects of one planned top-layer
// gossip in the canonical role order: probe ledger and timestamp resets
// (initiator), the partner exchange (split across both shards), the gossip
// timestamps, and the random-view contacts (initiator).
//
//p3q:phase commit
func (e *Engine) commitTopShard(a *Node, p *topPlan, sh *commitShard) {
	if !p.used {
		return
	}
	ownA := sh.owns(a.id)
	if ownA {
		sh.ledger.Merge(&p.ledger)
		for _, id := range p.resets {
			a.pnet.ResetTimestamp(id)
		}
	}
	if p.ok {
		b := e.nodes[p.partner]
		e.commitTopExchangeShard(a, b, &p.exch, sh)
		if ownA {
			a.pnet.Touch(p.partner)
		}
		if sh.owns(b.id) {
			b.pnet.ResetTimestamp(a.id)
		}
	}
	if ownA {
		for i := range p.rv {
			c := &p.rv[i]
			if c.evalOnly {
				a.checkEvalCache()
				a.markEvaluated(c.owner, c.version)
				continue
			}
			it := c.integration()
			a.commitIntegration(&it, sh)
		}
	}
}

// exchangePlan is one planned symmetric top-layer exchange between two
// online nodes (Algorithm 3, "maintain personal network as in lazy mode",
// and the partner half of planTop): the sizes of both sides' step-1 digest
// messages, the ablation side ledger, and the planned integrations of what
// each side received. Steps 2-3 resolve at commit time through
// commitIntegration. The offer batches themselves are planner scratch —
// the integrations copy what they keep — and survive the plan only as the
// wire references of a captured cycle.
type exchangePlan struct {
	sizeA, sizeB int                 // step-1 digest batches a→b and b→a
	naive        uint64              // 3-step ablation ledger contribution
	intPeer      integration         // b's integration of a's offers
	intSelf      integration         // a's integration of b's offers
	refsA, refsB []tagging.DigestRef // captured cycles only: the batches a→b and b→a
}

// planTopExchangeInto plans the symmetric top-layer exchange between two
// online nodes into the pooled plan p: both sides advertise digests (step 1)
// and the received batches are scored against cycle-start state. The
// advertising randomness is passed in explicitly so both the lazy and the
// eager planners can derive per-cycle split streams; seen optionally
// overlays versions the caller's plan has already scored on a's side (the
// lazy planner shares it with its random-view pass). Each side's batch is
// scored before the other side advertises, so one offer buffer serves both.
//
//p3q:phase plan
//p3q:hotpath
func (e *Engine) planTopExchangeInto(w *planWorker, p *exchangePlan, a, b *Node, rngA, rngB *randx.Source, seen *idtab.Table) {
	offers := a.advertise(rngA, w)
	p.sizeA, p.naive, p.refsA = offersWireSize(offers), naiveOffersBytes(offers), w.captureRefs(offers)
	w.planIntegrateInto(&p.intPeer, b, offers, a.id, nil)
	offers = b.advertise(rngB, w)
	p.sizeB, p.naive, p.refsB = offersWireSize(offers), p.naive+naiveOffersBytes(offers), w.captureRefs(offers)
	w.planIntegrateInto(&p.intSelf, a, offers, b.id, seen)
}

// commitTopExchangeShard applies the shard-owned effects of a planned
// exchange: the step-1 messages and the ablation side ledger (charged to
// a's shard), b's integration of a's offers (b's shard) and a's integration
// of b's offers (a's shard). It returns the commit-resolved step-2/step-3
// traffic of each integration, as the growth of the shard ledger's byte
// total across it — each value is only meaningful in the shard owning the
// respective node — so the eager scheduling pass can attribute piggybacked
// maintenance bytes per query.
//
//p3q:phase commit
func (e *Engine) commitTopExchangeShard(a, b *Node, p *exchangePlan, sh *commitShard) (peerBytes, selfBytes uint64) {
	if sh.owns(a.id) {
		sh.ledger.Send(a.id, b.id, sim.MsgTopDigest, p.sizeA)
		sh.ledger.Send(b.id, a.id, sim.MsgTopDigest, p.sizeB)
		sh.naive += p.naive
	}
	if sh.owns(b.id) {
		before := sh.ledger.Total().TotalBytes()
		b.commitIntegration(&p.intPeer, sh)
		peerBytes = sh.ledger.Total().TotalBytes() - before
	}
	if sh.owns(a.id) {
		before := sh.ledger.Total().TotalBytes()
		a.commitIntegration(&p.intSelf, sh)
		selfBytes = sh.ledger.Total().TotalBytes() - before
	}
	return peerBytes, selfBytes
}

// naiveOffersBytes is the 3-step-ablation side ledger for one offer batch:
// what a naive protocol shipping every advertised profile in full would
// have cost.
func naiveOffersBytes(offers []offer) uint64 {
	var b uint64
	for _, o := range offers {
		b += uint64(tagging.ActionsWireSize(o.snap.Len()))
	}
	return b
}

// integration is the planned outcome of one node integrating a batch of
// received profile advertisements: the exact similarity scores and message
// sizes of steps 1-2 of Algorithm 1, for the offers that passed step 1 (none:
// nothing to commit). Step 3 (profile storage) depends on the personal
// network as committed, so it is resolved at commit time. Integrations are
// embedded by value in their owning plan slots; the results are a run of
// the planning worker's arena.
type integration struct {
	provider  tagging.UserID
	results   []intResult
	reqBytes  int
	respBytes int
}

// intResult is one scored offer inside an integration. applied is written
// at commit time (like eagerPlan.peerBytes): it marks the results whose
// upsert landed, replacing the per-commit membership map the step-3 loop
// used to allocate.
type intResult struct {
	o        offer
	score    int
	received int  // actions transferred in step 2 (for the step-3 discount)
	applied  bool // commit-time: upsert landed, offer's snapshot is storable
}

// planIntegrateInto computes the read-only part of Algorithm 1 for a batch
// of offers received by n from provider, into the caller's pooled
// integration slot (see planOffer). It reads only n's cycle-start state
// (plus the optional seen overlay of versions already scored by the same
// plan) and mutates nothing but the slot and the worker, so any number of
// planners may run it concurrently — including two planners integrating
// into the same n.
//
//p3q:phase plan
//p3q:hotpath
func (w *planWorker) planIntegrateInto(it *integration, n *Node, offers []offer, provider tagging.UserID, seen *idtab.Table) {
	it.provider = provider
	it.reqBytes, it.respBytes = 0, 0
	results := w.results.open(len(offers))
	for _, o := range offers {
		r, req, resp, ok := w.planOffer(n, o, seen, nil)
		if ok {
			results = append(results, r)
			it.reqBytes += req
			it.respBytes += resp
		}
	}
	w.results.close(results)
	it.results = results
}

// planOffer runs the read-only part of Algorithm 1 on one offer received by
// n, returning the scored offer and its step-2 message sizes:
//
//	step 1 (lines 1-15):  drop the offer when its version is already
//	                      scored (in the evaluated memo or seen), when it
//	                      does not change a known neighbour's digest, or
//	                      when its owner would be a new neighbour sharing no
//	                      item with the own profile (line 10);
//	step 2 (lines 16-26): fetch the tagging actions on common items and
//	                      compute the exact similarity score.
//
// One Bloom pass finds the common items, and an empty list is the "no
// shared item" test. common, when non-nil, is that list already computed
// by the caller for the same digest. A scored offer's version is recorded
// in seen (when non-nil).
//
//p3q:phase plan
//p3q:hotpath
func (w *planWorker) planOffer(n *Node, o offer, seen *idtab.Table, common []tagging.ItemID) (r intResult, reqBytes, respBytes int, ok bool) {
	owner := o.digest.Owner
	if owner == n.id {
		return r, 0, 0, false
	}
	v, known := n.evaluated.Get(uint32(owner))
	if seen != nil {
		if sv, ok := seen.Get(uint32(owner)); ok && (!known || sv > v) {
			v, known = sv, true
		}
	}
	if known && int(v) >= o.digest.Version {
		return r, 0, 0, false // already scored at this or a newer version
	}
	entry := n.pnet.Entry(owner)
	if entry != nil && entry.Digest.Version >= o.digest.Version {
		return r, 0, 0, false // digest does not change (or is older than known)
	}
	if entry == nil && n.e.cfg.StaticNetworks {
		return r, 0, 0, false // membership frozen: never admit new neighbours
	}
	if common == nil {
		w.common = o.digest.AppendCommonItems(w.common, n.profile)
		common = w.common
	}
	if entry == nil && len(common) == 0 {
		return r, 0, 0, false // no common item: does not qualify (Algorithm 1, line 10)
	}
	// Step 2: request the actions on common items and compute the exact
	// score.
	received, score := o.snap.ScoreOnItems(n.profile, common)
	if seen != nil {
		seen.Put(uint32(owner), int32(o.digest.Version))
	}
	r = intResult{o: o, score: score, received: received}
	return r, tagging.ItemsWireSize(len(common)), tagging.ActionsWireSize(received), true
}

// commitIntegration applies a planned integration: the evaluated-cache
// updates and step-2 traffic, the personal-network upserts (top-s, positive
// scores), and step 3 (lines 27-31) — fetch and store the full profiles of
// neighbours entering the top-c. Messages are counted in the committing
// shard's ledger rather than sent on the network directly, so shard
// committers stay free of shared counters; only n's own state is mutated,
// and the cross-node reads (owner profiles and digests) are frozen during
// the commit phase.
//
//p3q:phase commit
//p3q:hotpath
func (n *Node) commitIntegration(it *integration, sh *commitShard) {
	if len(it.results) == 0 {
		return
	}
	l := &sh.ledger
	n.checkEvalCache()
	for _, r := range it.results {
		n.markEvaluated(r.o.digest.Owner, r.o.digest.Version)
	}
	l.Send(n.id, it.provider, sim.MsgCommonItems, it.reqBytes)
	l.Send(it.provider, n.id, sim.MsgCommonItems, it.respBytes)

	// Update the personal network: keep the s highest positive scores. The
	// applied flags mark which results landed, so the step-3 loop below can
	// match rebalanced entries to their batch offers with a linear scan over
	// the (small) result set instead of a per-commit map.
	for i := range it.results {
		r := &it.results[i]
		r.applied = false
		if r.score <= 0 {
			continue
		}
		if entry := n.pnet.Entry(r.o.digest.Owner); entry != nil && entry.Digest.Version > r.o.digest.Version {
			continue // a fresher same-cycle commit already landed
		}
		n.pnet.Upsert(r.o.digest.Owner, r.score, r.o.digest)
		r.applied = true
	}

	// Step 3: store the profiles of neighbours entering the top-c. The
	// entries this batch did not advertise are kept, in order, at the front
	// of the shard's buffer and fetched after the batch's profile message.
	profBytes := 0
	sh.needStore = n.pnet.AppendRebalance(sh.needStore)
	directFetch := sh.needStore[:0]
	for _, entry := range sh.needStore {
		var r *intResult
		for i := range it.results {
			if it.results[i].applied && it.results[i].o.digest.Owner == entry.ID {
				r = &it.results[i]
				break
			}
		}
		if r != nil {
			entry.Stored = int32(r.o.snap.Version())
			rest := r.o.snap.Len() - r.received
			if rest < 0 {
				rest = 0
			}
			profBytes += tagging.ActionsWireSize(rest)
		} else {
			// The entry re-entered the top-c without being advertised in
			// this batch (it was pushed out of storage earlier): fetch
			// directly from the owner.
			directFetch = append(directFetch, entry)
		}
	}
	if profBytes > 0 {
		l.Send(it.provider, n.id, sim.MsgProfile, profBytes)
	}
	for _, entry := range directFetch {
		n.fetchFromOwner(entry, l)
	}
}

// markEvaluated records that owner's profile was scored at version. The
// memo keeps the highest version scored and never goes down: two
// integrations planned against the same cycle-start state may score the
// same owner at different versions (two initiators gossiped with n), and a
// commit must not undo what a newer-version commit of the cycle applied,
// or the memo's contract (and score monotonicity) breaks.
//
//p3q:phase commit
func (n *Node) markEvaluated(owner tagging.UserID, version int) {
	if v, ok := n.evaluated.Get(uint32(owner)); !ok || version > int(v) {
		n.evaluated.Put(uint32(owner), int32(version))
	}
}

// fetchFromOwner retrieves a neighbour's full fresh profile directly from
// its owner (used for random-view candidates and for re-entering top-c
// entries), recording the messages in l. It is a no-op if the owner has
// departed. The owner's profile and normalized digest are read-only during
// the commit phase, so this is safe from any shard committer.
//
//p3q:phase commit
func (n *Node) fetchFromOwner(entry *Entry, l *sim.Ledger) {
	if !n.e.net.Online(entry.ID) {
		l.Send(n.id, entry.ID, sim.MsgProbe, 0) // records the probe
		return
	}
	owner := n.e.nodes[entry.ID]
	version := owner.profile.Version()
	l.Send(n.id, entry.ID, sim.MsgCommonItems, requestBytes)
	l.Send(entry.ID, n.id, sim.MsgProfile, tagging.ActionsWireSize(version))
	entry.Stored = int32(version)
	entry.Digest = owner.digest()
}
