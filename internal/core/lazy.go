package core

import (
	"p3q/internal/gossip"
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
//     network) is recorded in per-shard ledgers that are merged into the
//     network in canonical shard order after the parallel phase. Each
//     node's intents land in the same canonical (cycle, pair, role) order
//     for every worker count, so the output stays byte-for-byte identical.
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
// partner, both send buffers (computed against the cycle-start views), the
// split streams the commit-time merges will draw from, and the message
// ledger. Plans live in the engine's pooled vplans slice: every field is
// either a value re-initialized per cycle or a scratch buffer that reuses
// its capacity, so a steady-state cycle plans without allocating.
type viewPlan struct {
	used       bool // false: slot idle this cycle (offline node or empty view)
	ledger     sim.Ledger
	partner    tagging.UserID
	dead       bool // partner departed: drop it from the view
	bufA, bufB []gossip.Descriptor
	smpA, smpB randx.Sampler
	rngA, rngB randx.Source
}

// planViewInto plans one bottom-layer gossip for node a into the pooled
// plan slot p: pick a uniform partner from the random view, swap r digests,
// re-sample both views. The slot stays unused when the view is empty.
//
//p3q:phase plan
//p3q:hotpath
func (e *Engine) planViewInto(a *Node, seq uint64, p *viewPlan) {
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
	e.net.InitLedger(&p.ledger)
	if !e.net.Online(d.Node) {
		p.ledger.Send(a.id, d.Node, sim.MsgProbe, 0) // records the failed attempt
		// Departed contact: drop it so the view heals (§3.4.2).
		p.dead = true
		return
	}
	b := e.nodes[d.Node]
	p.rngB = b.rng.Derive(planLabel(seq, purposeViewReply, a.id))
	p.bufA = a.view.SendBufferInto(a.descriptor(), rng, p.bufA, &p.smpA)
	p.bufB = b.view.SendBufferInto(b.descriptor(), &p.rngB, p.bufB, &p.smpB)
	p.ledger.Send(a.id, d.Node, sim.MsgRandomView, descriptorsWireSize(p.bufA))
	p.ledger.Send(d.Node, a.id, sim.MsgRandomView, descriptorsWireSize(p.bufB))
}

// commitViewShard applies the shard-owned effects of one planned
// bottom-layer exchange: the plan ledger and the initiator-side view merge
// (or dead-partner removal) belong to a's shard, the partner-side merge to
// the partner's shard.
//
//p3q:phase commit
func (e *Engine) commitViewShard(a *Node, p *viewPlan, sh *commitShard) {
	if !p.used {
		return
	}
	if sh.owns(a.id) {
		sh.ledger.Merge(&p.ledger)
	}
	if p.dead {
		if sh.owns(a.id) {
			a.view.Remove(p.partner)
		}
		return
	}
	if sh.owns(a.id) {
		a.view.Merge(p.bufB, &p.rngA)
	}
	if sh.owns(p.partner) {
		e.nodes[p.partner].view.Merge(p.bufA, &p.rngB)
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
// evaluated-cache update (digest shares no item) or a direct contact with
// the planned integration of the owner's fresh offer. Contacts live in the
// owning topPlan's pooled rv slice, so the embedded integration's buffers
// survive from cycle to cycle (see topPlan.nextRV).
type rvContact struct {
	owner    tagging.UserID
	evalOnly bool
	version  int
	intent   integration
}

// topPlan is one node's planned top-layer gossip plus random-view
// evaluation: the probes spent finding an online partner, the symmetric
// 3-step exchange planned for both sides, and the random-view contacts.
// Like viewPlan, topPlans are pooled engine slots: every sub-plan is
// embedded by value and every buffer — including the rv slots' integration
// buffers and the seen overlay map — is reused across cycles.
type topPlan struct {
	used   bool // false: slot idle this cycle (offline node)
	ledger sim.Ledger
	resets []tagging.UserID // departed partners probed: reset their timestamps

	partner tagging.UserID
	ok      bool
	exch    exchangePlan // the symmetric 3-step exchange with the partner

	rv []rvContact

	// Plan-phase scratch.
	partners []uint32               // selectTopPartner: shuffled (last, ID) ranks, then the current age group
	seen     map[tagging.UserID]int // evaluated-cache overlay, cleared per cycle
	oneOffer [1]offer               // backing array for single-offer integrations
}

// nextRV appends one rv slot and returns it, re-exposing a previous cycle's
// slot (with its integration buffers intact) when capacity allows. The
// caller must set every field it relies on: the slot's content is stale.
//
//p3q:hotpath
func (p *topPlan) nextRV() *rvContact {
	if len(p.rv) < cap(p.rv) {
		p.rv = p.rv[:len(p.rv)+1]
	} else {
		p.rv = append(p.rv, rvContact{})
	}
	return &p.rv[len(p.rv)-1]
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
func (e *Engine) selectTopPartner(a *Node, rng *randx.Source, p *topPlan) *Node {
	ranking := a.pnet.ranking
	n := len(ranking)
	perm := p.partners[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, uint32(i))
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	p.partners = perm
	probes, offset, lo := 0, 0, uint64(0)
	for offset < n && probes < e.cfg.MaxProbes {
		var last uint64
		p.partners, last = a.pnet.appendAgeGroup(p.partners[:n], lo)
		group := p.partners[n:]
		left := len(group)
		for _, r := range p.partners[:n] {
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
func (e *Engine) planTopInto(a *Node, seq uint64, p *topPlan) {
	p.used = true
	p.ok = false
	p.resets = p.resets[:0]
	p.rv = p.rv[:0]
	e.net.InitLedger(&p.ledger)
	rng := a.rng.Derive(planLabel(seq, purposeTop, 0))

	b := e.selectTopPartner(a, &rng, p)

	// seen overlays the evaluated cache with the versions this plan already
	// scored, so the random-view pass below does not re-contact an owner
	// the top exchange just integrated.
	if p.seen == nil {
		p.seen = make(map[tagging.UserID]int)
	} else {
		clear(p.seen)
	}
	seen := p.seen
	if b != nil {
		p.partner, p.ok = b.id, true
		brng := b.rng.Derive(planLabel(seq, purposeTopReply, a.id))
		e.planTopExchangeInto(&p.exch, a, b, &rng, &brng, seen)
	}

	// Random-view evaluation: score the members whose digests indicate at
	// least one shared item, contacting them directly for their fresh
	// profiles (§2.2.1: "The profile of vj is obtained by directly
	// contacting vj if Digest(vj) contains at least one item tagged by ui").
	for _, d := range a.view.Entries() {
		if d.Node == a.id {
			continue
		}
		v, known := a.evaluated.Get(uint32(d.Node))
		if sv, ok := seen[d.Node]; ok && (!known || sv > int(v)) {
			v, known = int32(sv), true
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
		if !d.Digest.SharesItemWith(a.profile) {
			seen[d.Node] = d.Digest.Version
			c := p.nextRV()
			c.owner, c.evalOnly, c.version = d.Node, true, d.Digest.Version
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
		p.oneOffer[0] = offer{digest: owner.digest(), snap: owner.profile.Snapshot()}
		p.ledger.Send(a.id, d.Node, sim.MsgTopDigest, requestBytes)
		p.ledger.Send(d.Node, a.id, sim.MsgTopDigest, p.oneOffer[0].digest.SizeBytes())
		c := p.nextRV()
		c.owner, c.evalOnly, c.version = d.Node, false, 0
		planIntegrateInto(&c.intent, a, p.oneOffer[:], d.Node, seen)
	}
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
				a.evaluated.Put(uint32(c.owner), int32(c.version))
				continue
			}
			a.commitIntegration(&c.intent, &sh.ledger)
		}
	}
}

// exchangePlan is one planned symmetric top-layer exchange between two
// online nodes (Algorithm 3, "maintain personal network as in lazy mode",
// and the partner half of planTop): both sides' step-1 digest messages,
// the ablation side ledger, and the planned integrations of what each side
// received. Steps 2-3 resolve at commit time through commitIntegration.
type exchangePlan struct {
	ledger  sim.Ledger
	naive   uint64      // 3-step ablation ledger contribution
	intPeer integration // b's integration of a's offers
	intSelf integration // a's integration of b's offers

	// Plan-phase scratch: the advertised offer batches (their content is
	// consumed by the sends, the ablation ledger and the integrations above,
	// which copy what they keep), plus the stored-entry collection buffer
	// and sampling scratch shared by both advertise calls (they run
	// sequentially within this plan).
	offersA, offersB []offer
	storedBuf        []*Entry
	smp              randx.Sampler
}

// planTopExchangeInto plans the symmetric top-layer exchange between two
// online nodes into the pooled plan p: both sides advertise digests (step 1)
// and the received batches are scored against cycle-start state. The
// advertising randomness is passed in explicitly so both the lazy and the
// eager planners can derive per-cycle split streams; seen optionally
// overlays versions the caller's plan has already scored on a's side (the
// lazy planner shares it with its random-view pass).
//
//p3q:phase plan
//p3q:hotpath
func (e *Engine) planTopExchangeInto(p *exchangePlan, a, b *Node, rngA, rngB *randx.Source, seen map[tagging.UserID]int) {
	e.net.InitLedger(&p.ledger)
	p.offersA, p.storedBuf = a.advertiseInto(rngA, p.offersA, p.storedBuf, &p.smp)
	p.offersB, p.storedBuf = b.advertiseInto(rngB, p.offersB, p.storedBuf, &p.smp)
	p.ledger.Send(a.id, b.id, sim.MsgTopDigest, offersWireSize(p.offersA))
	p.ledger.Send(b.id, a.id, sim.MsgTopDigest, offersWireSize(p.offersB))
	p.naive = naiveOffersBytes(p.offersA) + naiveOffersBytes(p.offersB)
	planIntegrateInto(&p.intPeer, b, p.offersA, a.id, nil)
	planIntegrateInto(&p.intSelf, a, p.offersB, b.id, seen)
}

// commitTopExchangeShard applies the shard-owned effects of a planned
// exchange: the step-1 ledger and the ablation side ledger (charged to a's
// shard), b's integration of a's offers (b's shard) and a's integration of
// b's offers (a's shard). It returns the commit-resolved step-2/step-3
// traffic of each integration — each value is only meaningful in the shard
// owning the respective node — so the eager scheduling pass can attribute
// piggybacked maintenance bytes per query.
//
//p3q:phase commit
func (e *Engine) commitTopExchangeShard(a, b *Node, p *exchangePlan, sh *commitShard) (peerBytes, selfBytes uint64) {
	if sh.owns(a.id) {
		sh.ledger.Merge(&p.ledger)
		sh.naive += p.naive
	}
	if sh.owns(b.id) {
		mark := sh.ledger.Len()
		b.commitIntegration(&p.intPeer, &sh.ledger)
		peerBytes = sh.ledger.BytesSince(mark)
	}
	if sh.owns(a.id) {
		mark := sh.ledger.Len()
		a.commitIntegration(&p.intSelf, &sh.ledger)
		selfBytes = sh.ledger.BytesSince(mark)
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
// sizes of steps 1-2 of Algorithm 1. Step 3 (profile storage) depends on
// the personal network as committed, so it is resolved at commit time.
// Integrations are embedded by value in their owning plan slots and
// re-initialized in place by planIntegrateInto; the common-item scratch
// buffer persists across cycles.
type integration struct {
	ok        bool // false: every offer was filtered out, nothing to commit
	provider  tagging.UserID
	results   []intResult
	reqBytes  int
	respBytes int

	// Step-2 scratch, reused per offer.
	common []tagging.ItemID
}

// intResult is one scored offer inside an integration. applied is written
// at commit time (like eagerPlan.peerBytes): it marks the results whose
// upsert landed, replacing the per-commit membership map the step-3 loop
// used to allocate.
type intResult struct {
	o        offer
	score    int
	received int  // actions transferred in step 2 (for the step-3 discount)
	version  int  // evaluated-cache update for the offer's owner
	applied  bool // commit-time: upsert landed, offer's snapshot is storable
}

// planIntegrateInto computes the read-only part of Algorithm 1 for a batch
// of offers received by n from provider, into the caller's pooled
// integration slot:
//
//	step 1 (lines 1-15):  filter digests — drop unchanged/known versions and
//	                      owners sharing no item with the own profile;
//	step 2 (lines 16-26): fetch the tagging actions on common items and
//	                      compute exact similarity scores.
//
// It reads only n's cycle-start state (plus the optional seen overlay of
// versions already scored by the same plan) and mutates nothing but the
// slot, so any number of planners may run it concurrently — including two
// planners integrating into the same n. The slot's ok flag is false when
// every offer is filtered out (no step-2 messages are exchanged then).
//
//p3q:phase plan
//p3q:hotpath
func planIntegrateInto(it *integration, n *Node, offers []offer, provider tagging.UserID, seen map[tagging.UserID]int) {
	it.provider = provider
	it.results = it.results[:0]
	it.reqBytes, it.respBytes = 0, 0
	for _, o := range offers {
		owner := o.digest.Owner
		if owner == n.id {
			continue
		}
		v, known := n.evaluated.Get(uint32(owner))
		if sv, ok := seen[owner]; ok && (!known || sv > int(v)) {
			v, known = int32(sv), true
		}
		if known && int(v) >= o.digest.Version {
			continue // already scored at this or a newer version
		}
		if entry := n.pnet.Entry(owner); entry != nil {
			if entry.Digest.Version >= o.digest.Version {
				continue // digest does not change (or is older than known)
			}
		} else if n.e.cfg.StaticNetworks {
			continue // membership frozen: never admit new neighbours
		} else if !o.digest.SharesItemWith(n.profile) {
			continue // no common item: does not qualify (Algorithm 1, line 10)
		}
		// Step 2: request the actions on common items and compute the
		// exact score.
		it.common = o.digest.AppendCommonItems(it.common, n.profile)
		it.reqBytes += tagging.ItemsWireSize(len(it.common))
		received, score := o.snap.ScoreOnItems(n.profile, it.common)
		it.respBytes += tagging.ActionsWireSize(received)
		if seen != nil {
			seen[owner] = o.digest.Version
		}
		it.results = append(it.results, intResult{o: o, score: score, received: received, version: o.digest.Version})
	}
	it.ok = len(it.results) > 0
}

// commitIntegration applies a planned integration: the evaluated-cache
// updates and step-2 traffic, the personal-network upserts (top-s, positive
// scores), and step 3 (lines 27-31) — fetch and store the full profiles of
// neighbours entering the top-c. Messages are recorded in l (the committing
// shard's ledger) rather than sent on the network directly, so shard
// committers stay free of shared counters; only n's own state is mutated,
// and the cross-node reads (owner profiles and digests) are frozen during
// the commit phase.
//
//p3q:phase commit
//p3q:hotpath
func (n *Node) commitIntegration(it *integration, l *sim.Ledger) {
	if !it.ok {
		return
	}
	n.checkEvalCache()
	// Two integrations planned against the same cycle-start state may
	// score the same owner at different versions (two initiators gossiped
	// with n); the commits must never downgrade state a newer-version
	// integration already applied, or the evaluated memo's "highest
	// version scored" contract (and score monotonicity) breaks.
	for _, r := range it.results {
		if v, ok := n.evaluated.Get(uint32(r.o.digest.Owner)); !ok || r.version > int(v) {
			n.evaluated.Put(uint32(r.o.digest.Owner), int32(r.version))
		}
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
		if entry := n.pnet.Entry(r.o.digest.Owner); entry != nil && entry.Digest.Version > r.version {
			continue // a fresher same-cycle commit already landed
		}
		n.pnet.Upsert(r.o.digest.Owner, r.score, r.o.digest)
		r.applied = true
	}

	// Step 3: store the profiles of neighbours entering the top-c.
	profBytes := 0
	var directFetch []*Entry
	for _, entry := range n.pnet.Rebalance() {
		var r *intResult
		for i := range it.results {
			if it.results[i].applied && it.results[i].o.digest.Owner == entry.ID {
				r = &it.results[i]
				break
			}
		}
		if r != nil {
			entry.Stored = r.o.snap
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
	snap := owner.profile.Snapshot()
	l.Send(n.id, entry.ID, sim.MsgCommonItems, requestBytes)
	l.Send(entry.ID, n.id, sim.MsgProfile, tagging.ActionsWireSize(snap.Len()))
	entry.Stored = snap
	entry.Digest = owner.digest()
}
