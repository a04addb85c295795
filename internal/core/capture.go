package core

import (
	"p3q/internal/gossip"
	"p3q/internal/tagging"
	"p3q/internal/topk"
)

// This file is the core-reuse seam between the deterministic engine and
// the peer daemon (internal/peer, cmd/p3qd). A daemon hosts a contiguous
// node range but steps a full engine replica — the simulator is the
// executable spec, and every daemon runs it — and the captured cycle
// description tells the daemon exactly which protocol exchanges the cycle
// performed, with whom, carrying what. The daemon then speaks those
// exchanges over the wire (internal/wire) between the daemons hosting
// each side, and verifies every peer response against its own replica's
// computation: the simulator-as-oracle contract, enforced per message.
//
// Captures are pure observations. A captured cycle draws the same random
// streams, sends the same messages and commits the same state as an
// uncaptured one — capture_test.go pins byte-for-byte equality — so
// stepping replicas with capture on N daemons is indistinguishable from
// running the reference engine.
//
// A capture describes a cycle completely only when every message of the
// cycle also arrives inside it, so the captured entry points require
// Config.Latency == nil.

// ViewExchangeCap is one bottom-layer peer-sampling exchange of a lazy
// cycle: the initiator's buffer travels to the partner and the partner's
// buffer comes back (§2.2.1).
type ViewExchangeCap struct {
	Initiator tagging.UserID
	Partner   tagging.UserID
	BufA      []tagging.DigestRef // initiator -> partner
	BufB      []tagging.DigestRef // partner -> initiator
}

// DirectFetchCap is one random-view direct contact (§2.2.1): the
// initiator requests the owner's fresh profile offer.
type DirectFetchCap struct {
	Owner tagging.UserID
	Offer tagging.DigestRef
}

// TopExchangeCap is one initiator's top-layer round of a lazy cycle: the
// symmetric 3-step exchange with the selected partner (step-1 digest
// batches in both directions; steps 2-3 resolve against the receiver's
// committed state) plus the initiator's random-view direct contacts.
type TopExchangeCap struct {
	Initiator  tagging.UserID
	HasPartner bool
	Partner    tagging.UserID
	OffersA    []tagging.DigestRef // initiator -> partner (step 1)
	OffersB    []tagging.DigestRef // partner -> initiator (step 1)
	Fetches    []DirectFetchCap
}

// LazyCapture describes every exchange of one lazy cycle, in the cycle's
// canonical permutation order — the order the commit phase applies them.
type LazyCapture struct {
	Seq   uint64
	Views []ViewExchangeCap
	Tops  []TopExchangeCap
}

// EagerPairCap is one (initiator, query) gossip of an eager cycle
// (Algorithm 3): the forwarded branch, the destination's resolution into
// a partial result, the portion of the unresolved rest sent back, and the
// piggybacked maintenance exchange.
type EagerPairCap struct {
	Initiator tagging.UserID
	Qid       uint64
	Ok        bool // an online destination was found
	Dest      tagging.UserID
	Querier   tagging.UserID

	Tags        []tagging.TagID
	Branch      []tagging.UserID // forwarded remaining list (cycle-start)
	FoundOwners []tagging.UserID // resolved against the destination's storage
	Plist       []topk.Entry     // partial result over the resolved profiles
	Delivered   bool             // the partial result reached the querier
	Returned    []tagging.UserID // unresolved members sent back

	OffersA []tagging.DigestRef // piggybacked maintenance, initiator -> destination
	OffersB []tagging.DigestRef // piggybacked maintenance, destination -> initiator
}

// EagerCapture describes every gossip of one eager cycle, in the
// canonical pair order.
type EagerCapture struct {
	Seq   uint64
	Pairs []EagerPairCap
}

// LazyCycleCaptured runs one lazy cycle exactly like LazyCycle and
// returns the capture describing its exchanges. It requires
// Config.Latency == nil: the daemon's wire protocol is cycle-aligned.
func (e *Engine) LazyCycleCaptured() *LazyCapture {
	if e.cfg.Latency != nil {
		panic("core: capture requires Config.Latency == nil")
	}
	cp := &LazyCapture{}
	e.lazyCycle(cp)
	return cp
}

// EagerCycleCaptured runs one eager cycle exactly like EagerCycle and
// returns the capture describing its gossips. It requires
// Config.Latency == nil.
func (e *Engine) EagerCycleCaptured() *EagerCapture {
	if e.cfg.Latency != nil {
		panic("core: capture requires Config.Latency == nil")
	}
	cp := &EagerCapture{}
	e.eagerCycle(cp)
	return cp
}

// digestRefs converts an offer batch to its wire references.
func digestRefs(offers []offer) []tagging.DigestRef {
	if len(offers) == 0 {
		return nil
	}
	out := make([]tagging.DigestRef, len(offers))
	for i, o := range offers {
		out[i] = o.digest.Ref()
	}
	return out
}

// descriptorRefs converts a peer-sampling buffer to its wire references.
func descriptorRefs(buf []gossip.Descriptor) []tagging.DigestRef {
	if len(buf) == 0 {
		return nil
	}
	out := make([]tagging.DigestRef, len(buf))
	for i, d := range buf {
		out[i] = d.Digest.Ref()
	}
	return out
}

// captureLazy fills cap from the cycle's committed plan slots, walking
// the canonical permutation order.
func (e *Engine) captureLazy(cp *LazyCapture, seq uint64, order []int) {
	cp.Seq = seq
	for _, i := range order {
		p := &e.scratch.vplans[i]
		if !p.used || p.dead {
			continue
		}
		cp.Views = append(cp.Views, ViewExchangeCap{
			Initiator: e.nodes[i].id,
			Partner:   p.partner,
			BufA:      descriptorRefs(p.bufA),
			BufB:      descriptorRefs(p.bufB),
		})
	}
	for _, i := range order {
		p := &e.scratch.tplans[i]
		if !p.used {
			continue
		}
		tc := TopExchangeCap{Initiator: e.nodes[i].id, HasPartner: p.ok}
		if p.ok {
			tc.Partner = p.partner
			tc.OffersA = p.exch.refsA
			tc.OffersB = p.exch.refsB
		}
		for ri := range p.rv {
			c := &p.rv[ri]
			if c.evalOnly {
				continue
			}
			tc.Fetches = append(tc.Fetches, DirectFetchCap{
				Owner: c.owner,
				Offer: e.nodes[c.owner].digest().Ref(),
			})
		}
		if !tc.HasPartner && len(tc.Fetches) == 0 {
			continue
		}
		cp.Tops = append(cp.Tops, tc)
	}
}

// captureEagerContent fills cap with the plan-phase content of the
// cycle's gossips, before commit mutates any branch. The hand-off slices
// (foundOwners, plist, returned) are freshly allocated per plan and
// never mutated after the cycle, so the capture aliases them; the branch
// aliases the initiator's live list, so it is copied.
func (e *Engine) captureEagerContent(cp *EagerCapture, plans []eagerPlan) {
	cp.Pairs = make([]EagerPairCap, len(plans))
	for i := range plans {
		p := &plans[i]
		qr := e.queries[p.qid]
		pc := &cp.Pairs[i]
		pc.Initiator = p.u
		pc.Qid = p.qid
		pc.Ok = p.ok
		pc.Querier = qr.Query.Querier
		pc.Tags = qr.Query.Tags
		if !p.ok {
			continue
		}
		pc.Dest = p.dest
		pc.Branch = append([]tagging.UserID(nil), p.branch...)
		pc.FoundOwners = p.foundOwners
		pc.Plist = p.plist
		pc.Delivered = p.delivered
		pc.Returned = p.returned
		pc.OffersA = p.exch.refsA
		pc.OffersB = p.exch.refsB
	}
}
