package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"

	ckpt "p3q/internal/checkpoint"
	"p3q/internal/gossip"
	"p3q/internal/randx"
	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// This file implements the engine side of the checkpoint/restore subsystem:
// Engine.Snapshot serializes the complete protocol state into the versioned
// binary format of internal/checkpoint, and Restore rebuilds an engine that
// continues the run exactly where the snapshot left off.
//
// The correctness bar is the repository's determinism contract extended
// across process boundaries: snapshot at cycle N, restore, run M more
// cycles, and the fingerprint equals an uninterrupted N+M run byte for byte
// — for every Config.Workers value, with and without a latency model,
// including snapshots taken while events are in flight or frozen at
// departed nodes (TestCheckpointResumeEquivalence).
//
// What a snapshot contains, and why it is sufficient:
//
//   - Profiles. Nodes alias the dataset's profiles, and profiles mutate
//     over a run (trace.ApplyChanges), so every profile's full action log
//     is embedded — the checkpoint is self-contained. Restore either
//     rebuilds a private dataset from the embedded logs (ds == nil) or
//     fast-forwards a caller-provided dataset whose profiles must be
//     prefixes of the checkpointed logs (the warm-fork path: the caller
//     regenerates the deterministic base trace and keeps its generator
//     metadata for future change-sets).
//   - Digests and stored snapshots by reference. Profiles are append-only,
//     so a digest is a pure function of (owner, version, Bloom geometry)
//     and a stored replica is SnapshotAt(version) of the owner's profile.
//     Serializing (owner, version) pairs and reconstructing both keeps
//     checkpoints small and — because every consumer only reads digest
//     content and versions — behaviourally identical.
//   - Personal networks in ranking order with their logical clocks and
//     per-entry last-gossip stamps (ages are derived state), random views,
//     evaluated-version memos, and per-query remaining-list branches in
//     list order (order is protocol state: it drives destination selection).
//   - Query runs, in issue order, each as one of two records sharing a
//     header (ID, querier, tags, item, needed, cycles, done, partial-result
//     count, traffic attribution and the virtual-clock instants: issue,
//     first result, full recall). An active record (done false) goes on
//     with the in-flight count, the settle cycle, the used/reached/active
//     sets, the displayed results, the unmerged lists (none between
//     cycles: every cycle ends with a merge) and the NRA scan state (lists
//     with cursors, candidate accumulations; the ranking is rebuilt). A
//     settled record (done true, Version 2 on) carries only what a settled
//     query keeps: the settle cycle, the used count, the reached list and
//     the results. Restore rebuilds the active list from the active
//     records.
//   - The network substrate: liveness, global and per-node traffic.
//   - The event machinery: the pending delivery queue with its (At, Seq)
//     order and scheduling counter, and the store-and-forward events
//     frozen at departed nodes, per target in freeze order.
//   - Every RNG stream state (engine, latency, per node) and the cycle,
//     kill and query-ID sequence counters that label split streams.
//
// The attached obs registry is deliberately not captured: its host plane
// measures wall-clock, not protocol state, and restarts at zero.

// maxListEntries bounds any single serialized result list; partial lists
// are bounded by the item space, which shares the uint32 ID space.
const maxListEntries = 1 << 26

// maxQueryTags bounds a query's tag list (real queries carry the tags of
// one profile item — a handful).
const maxQueryTags = 1 << 20

// maxEvents bounds the pending/frozen event counts.
const maxEvents = 1 << 26

// Snapshot writes the engine's complete state as a P3Q checkpoint. Call it
// between cycles (like every other engine method, from one goroutine);
// restoring the stream with Restore yields an engine whose continued run is
// byte-for-byte identical to this engine's, for any worker count.
func (e *Engine) Snapshot(w io.Writer) error {
	cw := ckpt.NewWriter(w)
	e.writeParams(cw)
	e.writeCounters(cw)
	e.writeProfiles(cw)
	e.writeNetwork(cw)
	for _, n := range e.nodes {
		e.writeNode(cw, n)
	}
	e.writeQueries(cw)
	e.writeEvents(cw)
	return cw.Close()
}

// Restore rebuilds an engine from a checkpoint written by Snapshot.
//
// ds selects where profiles come from:
//
//   - nil: a private dataset is materialized from the embedded profile
//     logs. Fully self-contained, but the dataset carries no generator
//     metadata (like trace.Load), so future change-sets drawn from it use
//     the global item space.
//   - non-nil: the caller's dataset is adopted and fast-forwarded — each
//     profile must be a prefix of (or equal to) the checkpointed log and
//     the missing actions are appended in place. This is the
//     converge-once-fork-many path: regenerate the deterministic base
//     trace, restore on top, and keep generator metadata. The dataset is
//     mutated and must not be shared with another live engine whose
//     profile state could diverge.
//
// cfg must agree with the snapshotting engine's configuration on every
// protocol parameter (s, c, r, k, alpha, digest geometry, probes, periods,
// seed, mode flags); Restore validates them and fails on a mismatch.
// Config.Workers and Config.Latency are free: a snapshot taken at any
// worker count restores at any other, and a fork may run under a different
// latency model (or none) — deliveries already in flight keep their drawn
// arrival times, later ones follow the new model — which is what lets one
// converged overlay serve whole scenario families.
func Restore(r io.Reader, ds *trace.Dataset, cfg Config) (*Engine, error) {
	cr := ckpt.NewReader(r)
	rs := &restorer{r: cr, inflight: make(map[uint64]int)}

	users := rs.readParams(cfg)
	if cr.Err() != nil {
		return nil, cr.Err()
	}
	if cfg.CAssign != nil && len(cfg.CAssign) != users {
		return nil, fmt.Errorf("checkpoint: CAssign has %d entries for %d users", len(cfg.CAssign), users)
	}
	rs.cfg = cfg.sanitize(users)
	rs.validateParams()

	e := &Engine{
		cfg:     rs.cfg,
		queries: make(map[uint64]*QueryRun),
		events:  sim.NewEventQueue(),
		frozen:  make(map[tagging.UserID][]*eagerEvent),
	}
	rs.e = e
	rs.readCounters()
	rs.readProfiles(ds, users)
	if cr.Err() != nil {
		return nil, cr.Err()
	}
	e.ds = rs.ds
	rs.digests = make([][]*tagging.Digest, users)
	e.net = sim.NewNetwork(users)
	rs.readNetwork()
	e.nodes = make([]*Node, users)
	for u := 0; u < users && cr.Err() == nil; u++ {
		e.nodes[u] = rs.readNode(tagging.UserID(u))
	}
	rs.readQueries()
	rs.readEvents()
	cr.End()
	if cr.Err() != nil {
		return nil, cr.Err()
	}
	if err := rs.crossCheck(); err != nil {
		return nil, err
	}
	return e, nil
}

// restorer carries the context of one Restore call.
type restorer struct {
	r     *ckpt.Reader
	cfg   Config
	e     *Engine
	ds    *trace.Dataset
	users int
	// digests holds, per owner, the digests rebuilt so far, one per version
	// referenced (profiles are append-only, so owner and version determine
	// the content; nearly every owner is referenced at a single version).
	digests [][]*tagging.Digest
	// inflight counts the delivery events read per query, pending and
	// frozen, for crossCheck to hold against QueryRun.inflight.
	inflight map[uint64]int

	// snapshot-side parameters read from the stream, validated against cfg.
	params snapParams
}

// snapParams is the protocol-parameter block a snapshot opens with.
type snapParams struct {
	users, items, tags                 int
	s, c, r, k                         int
	maxDigests, bloomBits, bloomHashes int
	maxProbes                          int
	alphaBits                          uint64
	eagerPeriod, lazyPeriod            time.Duration
	seed                               uint64
	disableEagerBias, staticNetworks   bool
}

func (e *Engine) writeParams(cw *ckpt.Writer) {
	cw.U32(uint32(len(e.nodes)))
	cw.U32(uint32(e.ds.NumItems))
	cw.U32(uint32(e.ds.NumTags))
	cw.U32(uint32(e.cfg.S))
	cw.U32(uint32(e.cfg.C))
	cw.U32(uint32(e.cfg.R))
	cw.U32(uint32(e.cfg.K))
	cw.U32(uint32(e.cfg.MaxDigestsPerGossip))
	cw.U32(uint32(e.cfg.BloomBits))
	cw.U32(uint32(e.cfg.BloomHashes))
	cw.U32(uint32(e.cfg.MaxProbes))
	cw.U64(math.Float64bits(e.cfg.Alpha))
	cw.I64(int64(e.cfg.EagerPeriod))
	cw.I64(int64(e.cfg.LazyPeriod))
	cw.U64(e.cfg.Seed)
	cw.Bool(e.cfg.DisableEagerBias)
	cw.Bool(e.cfg.StaticNetworks)
}

// readParams reads the parameter block and returns the population size. cfg
// is the caller's (unsanitized) configuration; validation happens after
// sanitization in validateParams.
func (rs *restorer) readParams(cfg Config) int {
	p := &rs.params
	p.users = int(rs.r.U32())
	if rs.r.Err() == nil && (p.users < 1 || p.users > ckpt.MaxUsers) {
		rs.r.Fail("user count %d outside [1, %d]", p.users, ckpt.MaxUsers)
	}
	p.items = int(rs.r.U32())
	p.tags = int(rs.r.U32())
	p.s = int(rs.r.U32())
	p.c = int(rs.r.U32())
	p.r = int(rs.r.U32())
	p.k = int(rs.r.U32())
	p.maxDigests = int(rs.r.U32())
	p.bloomBits = int(rs.r.U32())
	p.bloomHashes = int(rs.r.U32())
	p.maxProbes = int(rs.r.U32())
	p.alphaBits = rs.r.U64()
	p.eagerPeriod = time.Duration(rs.r.I64())
	p.lazyPeriod = time.Duration(rs.r.I64())
	p.seed = rs.r.U64()
	p.disableEagerBias = rs.r.Bool()
	p.staticNetworks = rs.r.Bool()
	rs.users = p.users
	return p.users
}

// validateParams rejects a restore whose configuration disagrees with the
// snapshot on any protocol parameter. Workers and Latency are deliberately
// exempt: both are execution choices the determinism contract already
// spans.
func (rs *restorer) validateParams() {
	if rs.r.Err() != nil {
		return
	}
	p, c := rs.params, rs.cfg
	mismatch := func(field string, snap, now any) {
		rs.r.Fail("config mismatch: %s is %v in the snapshot but %v in the restoring config", field, snap, now)
	}
	switch {
	case p.s != c.S:
		mismatch("S", p.s, c.S)
	case p.c != c.C:
		mismatch("C", p.c, c.C)
	case p.r != c.R:
		mismatch("R", p.r, c.R)
	case p.k != c.K:
		mismatch("K", p.k, c.K)
	case p.maxDigests != c.MaxDigestsPerGossip:
		mismatch("MaxDigestsPerGossip", p.maxDigests, c.MaxDigestsPerGossip)
	case p.bloomBits != c.BloomBits:
		mismatch("BloomBits", p.bloomBits, c.BloomBits)
	case p.bloomHashes != c.BloomHashes:
		mismatch("BloomHashes", p.bloomHashes, c.BloomHashes)
	case p.maxProbes != c.MaxProbes:
		mismatch("MaxProbes", p.maxProbes, c.MaxProbes)
	case p.alphaBits != math.Float64bits(c.Alpha):
		mismatch("Alpha", math.Float64frombits(p.alphaBits), c.Alpha)
	case p.eagerPeriod != c.EagerPeriod:
		mismatch("EagerPeriod", p.eagerPeriod, c.EagerPeriod)
	case p.lazyPeriod != c.LazyPeriod:
		mismatch("LazyPeriod", p.lazyPeriod, c.LazyPeriod)
	case p.seed != c.Seed:
		mismatch("Seed", p.seed, c.Seed)
	case p.disableEagerBias != c.DisableEagerBias:
		mismatch("DisableEagerBias", p.disableEagerBias, c.DisableEagerBias)
	case p.staticNetworks != c.StaticNetworks:
		mismatch("StaticNetworks", p.staticNetworks, c.StaticNetworks)
	}
}

func (e *Engine) writeCounters(cw *ckpt.Writer) {
	cw.U64(uint64(e.lazyCycles))
	cw.U64(uint64(e.eagerCycles))
	cw.U64(e.cycleSeq)
	cw.U64(e.killSeq)
	cw.U64(e.nextQueryID)
	cw.I64(int64(e.now))
	cw.U64(e.naiveExchangeBytes)
	cw.U64(e.rng.State())
	cw.U64(e.latRng.State())
}

func (rs *restorer) readCounters() {
	e := rs.e
	e.lazyCycles = int(rs.r.U64())
	e.eagerCycles = int(rs.r.U64())
	e.cycleSeq = rs.r.U64()
	e.killSeq = rs.r.U64()
	e.nextQueryID = rs.r.U64()
	e.now = time.Duration(rs.r.I64())
	e.naiveExchangeBytes = rs.r.U64()
	e.rng = randx.Restore(rs.r.U64())
	e.latRng = randx.Restore(rs.r.U64())
}

func (e *Engine) writeProfiles(cw *ckpt.Writer) {
	var keys []uint64
	for _, p := range e.ds.Profiles {
		cw.Count(p.Len())
		keys = keys[:0]
		for _, a := range p.Actions() {
			keys = append(keys, a.Key())
		}
		cw.U64s(keys)
	}
}

// readProfiles materializes the embedded profile logs (ds == nil) or
// fast-forwards the provided dataset to the checkpointed state, validating
// that its profiles are prefixes of the checkpointed logs.
func (rs *restorer) readProfiles(ds *trace.Dataset, users int) {
	if ds != nil {
		if ds.Users() != users {
			rs.r.Fail("dataset has %d users, snapshot has %d", ds.Users(), users)
			return
		}
		if ds.NumItems != rs.params.items || ds.NumTags != rs.params.tags {
			rs.r.Fail("dataset spaces (%d items, %d tags) do not match the snapshot (%d, %d)",
				ds.NumItems, ds.NumTags, rs.params.items, rs.params.tags)
			return
		}
	}
	var profiles []*tagging.Profile
	if ds == nil {
		profiles = make([]*tagging.Profile, 0, ckpt.CapHint(users))
	}
	var keys []uint64
	var suffix []tagging.Action
	for u := 0; u < users && rs.r.Err() == nil; u++ {
		n := rs.r.Count(maxListEntries)
		var p *tagging.Profile
		have := 0
		if ds == nil {
			p = tagging.NewProfile(tagging.UserID(u))
		} else {
			p = ds.Profiles[u]
			have = p.Len()
			if n < have {
				rs.r.Fail("user %d: dataset profile has %d actions, snapshot only %d (dataset is ahead of the checkpoint)", u, have, n)
				return
			}
		}
		// The count is a claim until that many keys have arrived: the buffer
		// grows a bounded batch at a time.
		keys = keys[:0]
		for len(keys) < n && rs.r.Err() == nil {
			batch := min(n-len(keys), 4096)
			keys = slices.Grow(keys, batch)[:len(keys)+batch]
			rs.r.U64s(keys[len(keys)-batch:])
		}
		if rs.r.Err() != nil {
			return
		}
		for j, a := range p.Actions() {
			if a.Key() != keys[j] {
				snap := tagging.ActionFromKey(keys[j])
				rs.r.Fail("user %d: dataset action %d is (%d, %d), snapshot has (%d, %d) — not the checkpoint's base dataset",
					u, j, a.Item, a.Tag, snap.Item, snap.Tag)
				return
			}
		}
		suffix = suffix[:0]
		for _, key := range keys[have:] {
			suffix = append(suffix, tagging.ActionFromKey(key))
		}
		if _, dup := p.AddAll(suffix); dup >= 0 {
			rs.r.Fail("user %d: action (%d, %d) duplicated in the snapshot", u, suffix[dup].Item, suffix[dup].Tag)
		}
		if ds == nil {
			profiles = append(profiles, p)
		}
	}
	if ds == nil {
		rs.ds = &trace.Dataset{Profiles: profiles, NumItems: rs.params.items, NumTags: rs.params.tags}
	} else {
		rs.ds = ds
	}
}

func (e *Engine) writeNetwork(cw *ckpt.Writer) {
	for u := range e.nodes {
		cw.Bool(e.net.Online(tagging.UserID(u)))
	}
	writeTraffic(cw, e.net.Total())
	for u := range e.nodes {
		writeTraffic(cw, e.net.NodeTraffic(tagging.UserID(u)))
	}
}

func (rs *restorer) readNetwork() {
	for u := 0; u < rs.users && rs.r.Err() == nil; u++ {
		rs.e.net.SetOnline(tagging.UserID(u), rs.r.Bool())
	}
	total := rs.readTraffic()
	perNode := make([]sim.Traffic, 0, ckpt.CapHint(rs.users))
	for u := 0; u < rs.users && rs.r.Err() == nil; u++ {
		perNode = append(perNode, rs.readTraffic())
	}
	if rs.r.Err() != nil {
		return
	}
	if err := rs.e.net.RestoreTraffic(total, perNode); err != nil {
		rs.r.Fail("%v", err)
	}
}

func writeTraffic(cw *ckpt.Writer, t sim.Traffic) {
	for _, k := range sim.Kinds() {
		cw.U64(t.Msgs[k])
		cw.U64(t.Bytes[k])
	}
}

func (rs *restorer) readTraffic() sim.Traffic {
	var t sim.Traffic
	for _, k := range sim.Kinds() {
		t.Msgs[k] = rs.r.U64()
		t.Bytes[k] = rs.r.U64()
	}
	return t
}

func (e *Engine) writeNode(cw *ckpt.Writer, n *Node) {
	cw.U64(n.rng.State())

	cw.U32(uint32(n.evalVersion))
	e.scratch.eval = e.scratch.order.appendSorted(e.scratch.eval[:0], &n.evaluated)
	cw.Count(len(e.scratch.eval))
	for _, s := range e.scratch.eval {
		cw.U32(uint32(s.owner))
		cw.U32(uint32(s.version))
	}

	entries := n.view.Entries()
	cw.Count(len(entries))
	for _, d := range entries {
		cw.U32(uint32(d.Node))
		cw.U32(uint32(d.Digest.Version))
	}

	pn := n.pnet
	cw.U32(uint32(pn.s))
	cw.U32(uint32(pn.c))
	cw.U64(pn.clock)
	cw.Count(len(pn.ranking))
	for _, en := range pn.ranking {
		cw.U32(uint32(en.ID))
		cw.I64(int64(en.Score))
		cw.U64(en.last)
		cw.U32(uint32(en.Digest.Version))
		cw.Bool(en.Stored.Valid())
		if en.Stored.Valid() {
			cw.U32(uint32(en.Stored.Version()))
		}
	}

	qids := make([]uint64, 0, len(n.branches))
	//p3q:orderinvariant collects keys into qids, which is sorted before use
	for qid := range n.branches {
		qids = append(qids, qid)
	}
	sort.Slice(qids, func(i, j int) bool { return qids[i] < qids[j] })
	cw.Count(len(qids))
	for _, qid := range qids {
		cw.U64(qid)
		writeUserList(cw, n.branches[qid])
	}
}

func (rs *restorer) readNode(id tagging.UserID) *Node {
	n := &Node{
		id:      id,
		e:       rs.e,
		profile: rs.ds.Profiles[id],
		rng:     randx.Restore(rs.r.U64()),
	}

	n.evalVersion = int(rs.r.U32())
	nEval := rs.r.Count(rs.users)
	if nEval > 0 {
		n.evaluated.Reserve(ckpt.CapHint(nEval))
	}
	prev := -1
	for i := 0; i < nEval && rs.r.Err() == nil; i++ {
		owner := rs.readUserID()
		if int(owner) <= prev {
			rs.r.Fail("node %d: evaluated memo not in ascending owner order", id)
		}
		prev = int(owner)
		version := int(rs.r.U32())
		if rs.r.Err() == nil && version > rs.ds.Profiles[owner].Len() {
			rs.r.Fail("node %d: evaluated memo holds version %d of user %d, but the profile has %d actions", id, version, owner, rs.ds.Profiles[owner].Len())
		}
		n.evaluated.Put(uint32(owner), int32(version))
	}

	nView := rs.r.Count(rs.cfg.R)
	descs := make([]gossip.Descriptor, 0, ckpt.CapHint(nView))
	for i := 0; i < nView && rs.r.Err() == nil; i++ {
		owner := rs.readUserID()
		version := int(rs.r.U32())
		if owner == id {
			rs.r.Fail("node %d: own descriptor in random view", id)
			break
		}
		descs = append(descs, gossip.Descriptor{Node: owner, Digest: rs.digestFor(owner, version)})
	}
	n.view = gossip.NewView(id, rs.cfg.R)
	n.view.Bootstrap(descs)
	if rs.r.Err() == nil && n.view.Size() != nView {
		rs.r.Fail("node %d: random view holds duplicates", id)
	}

	s := int(rs.r.U32())
	c := int(rs.r.U32())
	if rs.r.Err() == nil && (s != rs.cfg.S || c < 0 || c > s) {
		rs.r.Fail("node %d: personal network capacities (s=%d, c=%d) incoherent with S=%d", id, s, c, rs.cfg.S)
	}
	// Per-node storage capacity is config (C or a CAssign entry, clamped to
	// s), so the config-match contract extends to heterogeneous setups: a
	// restore under a different CAssign draw must fail loudly, not install
	// capacities the caller's config disagrees with.
	if want := min(rs.cfg.capacityOf(id), s); rs.r.Err() == nil && c != want {
		rs.r.Fail("config mismatch: node %d stored capacity is %d in the snapshot but %d in the restoring config (CAssign differs?)", id, c, want)
	}
	n.pnet = NewPersonalNetwork(id, s, c)
	n.pnet.clock = rs.r.U64()
	nPnet := rs.r.Count(s)
	if nPnet > 0 {
		n.pnet.reserve(ckpt.CapHint(nPnet))
	}
	for i := 0; i < nPnet && rs.r.Err() == nil; i++ {
		owner := rs.readUserID()
		score := int(rs.r.I64())
		last := rs.r.U64()
		version := int(rs.r.U32())
		stored := tagging.Snapshot{}
		if rs.r.Bool() {
			sv := int(rs.r.U32())
			stored = rs.snapshotFor(owner, sv)
		}
		if rs.r.Err() != nil {
			break
		}
		switch {
		case owner == id:
			rs.r.Fail("node %d: personal network contains self", id)
		case score <= 0:
			rs.r.Fail("node %d: non-positive score %d for neighbour %d", id, score, owner)
		case last > n.pnet.clock:
			rs.r.Fail("node %d: neighbour %d gossip stamp %d exceeds clock %d", id, owner, last, n.pnet.clock)
		case n.pnet.Contains(owner):
			rs.r.Fail("node %d: duplicate neighbour %d", id, owner)
		}
		if rs.r.Err() != nil {
			break
		}
		en := Entry{ID: owner, Score: score, Digest: rs.digestFor(owner, version), Stored: stored, last: last}
		if ln := len(n.pnet.ranking); ln > 0 {
			p := &n.pnet.ranking[ln-1]
			if !rankBefore(p.Score, p.ID, en.Score, en.ID) {
				rs.r.Fail("node %d: personal network ranking out of order at neighbour %d", id, owner)
				break
			}
		}
		// The entries arrive in rank order (just validated), so the dense
		// layout is rebuilt by plain appends; appendEntry re-attaches the
		// owning-network pointer and feeds the by-owner index.
		n.pnet.appendEntry(en)
	}

	nBr := rs.r.Count(maxEvents)
	prevQID := uint64(0)
	for i := 0; i < nBr && rs.r.Err() == nil; i++ {
		qid := rs.r.U64()
		if i > 0 && qid <= prevQID {
			rs.r.Fail("node %d: branches not in ascending query order", id)
			break
		}
		prevQID = qid
		n.setBranch(qid, rs.readUserList(rs.users))
	}
	return n
}

func (e *Engine) writeQueries(cw *ckpt.Writer) {
	cw.Count(len(e.queryOrder))
	for _, qid := range e.queryOrder {
		qr := e.queries[qid]
		cw.U64(qr.ID)
		cw.U32(uint32(qr.Query.Querier))
		cw.Count(len(qr.Query.Tags))
		for _, t := range qr.Query.Tags {
			cw.U32(uint32(t))
		}
		cw.U32(uint32(qr.Query.Item))
		cw.U32(uint32(qr.needed))
		cw.U32(uint32(qr.cycles))
		cw.Bool(qr.done)
		cw.U32(uint32(qr.partialMsgs))
		cw.U64(qr.bytes.Forwarded)
		cw.U64(qr.bytes.Returned)
		cw.U64(qr.bytes.PartialResults)
		cw.U64(qr.bytes.Maintenance)
		cw.I64(int64(qr.issuedAt))
		cw.Bool(qr.hasFirst)
		cw.I64(int64(qr.firstAt))
		cw.I64(int64(qr.doneAt))
		if qr.done {
			cw.U64(qr.settledSeq)
			cw.U32(uint32(qr.usedCount))
			writeUserList(cw, qr.reachedIDs)
			writeEntryList(cw, qr.results)
			continue
		}
		cw.U32(uint32(qr.inflight))
		cw.U64(qr.settledSeq)
		writeUserSet(cw, qr.used)
		writeUserSet(cw, qr.reached)
		writeUserSet(cw, qr.activeNodes)
		writeEntryList(cw, qr.results)
		cw.Count(len(qr.pending))
		for _, l := range qr.pending {
			writeEntryList(cw, l)
		}
		writeNRA(cw, qr.nra)
	}
}

func (rs *restorer) readQueries() {
	e := rs.e
	nQ := rs.r.Count(maxEvents)
	var prev uint64
	for i := 0; i < nQ && rs.r.Err() == nil; i++ {
		qr := &QueryRun{e: e}
		qr.ID = rs.r.U64()
		if i > 0 && qr.ID <= prev {
			rs.r.Fail("queries not in ascending ID order")
			return
		}
		prev = qr.ID
		qr.Query.Querier = rs.readUserID()
		nTags := rs.r.Count(maxQueryTags)
		qr.Query.Tags = make([]tagging.TagID, 0, ckpt.CapHint(nTags))
		for j := 0; j < nTags && rs.r.Err() == nil; j++ {
			qr.Query.Tags = append(qr.Query.Tags, tagging.TagID(rs.r.U32()))
		}
		qr.Query.Item = tagging.ItemID(rs.r.U32())
		qr.needed = int(rs.r.U32())
		qr.cycles = int(rs.r.U32())
		qr.done = rs.r.Bool()
		qr.partialMsgs = int(rs.r.U32())
		qr.bytes.Forwarded = rs.r.U64()
		qr.bytes.Returned = rs.r.U64()
		qr.bytes.PartialResults = rs.r.U64()
		qr.bytes.Maintenance = rs.r.U64()
		qr.issuedAt = time.Duration(rs.r.I64())
		qr.hasFirst = rs.r.Bool()
		qr.firstAt = time.Duration(rs.r.I64())
		qr.doneAt = time.Duration(rs.r.I64())
		if qr.done {
			qr.settledSeq = rs.r.U64()
			qr.usedCount = int(rs.r.U32())
			if rs.r.Err() == nil && qr.usedCount > rs.users {
				rs.r.Fail("settled query %d used %d profiles of a population of %d", qr.ID, qr.usedCount, rs.users)
			}
			qr.reachedIDs = rs.readAscending()
			qr.results = rs.readEntryList()
		} else {
			qr.inflight = int(rs.r.U32())
			qr.settledSeq = rs.r.U64()
			qr.qset = topk.NewTagSet(qr.Query.Tags)
			qr.used = rs.readUserSet()
			qr.reached = rs.readUserSet()
			qr.activeNodes = rs.readUserSet()
			qr.results = rs.readEntryList()
			nPend := rs.r.Count(maxEvents)
			for j := 0; j < nPend && rs.r.Err() == nil; j++ {
				qr.pending = append(qr.pending, rs.readEntryList())
			}
			qr.nra = rs.readNRA()
		}
		if rs.r.Err() != nil {
			return
		}
		e.queries[qr.ID] = qr
		e.queryOrder = append(e.queryOrder, qr.ID)
		if !qr.done {
			e.active = append(e.active, qr)
		}
	}
}

func writeNRA(cw *ckpt.Writer, n *topk.NRA) {
	st := n.State()
	cw.U32(uint32(st.K))
	cw.Count(len(st.Lists))
	for _, l := range st.Lists {
		cw.U32(uint32(l.Pos))
		writeEntryList(cw, l.Entries)
	}
	cw.Count(len(st.Cands))
	for _, c := range st.Cands {
		cw.U32(uint32(c.Item))
		cw.I64(int64(c.Worst))
		cw.Count(len(c.SeenIn))
		for _, li := range c.SeenIn {
			cw.U32(uint32(li))
		}
	}
}

func (rs *restorer) readNRA() *topk.NRA {
	st := topk.NRAState{K: int(rs.r.U32())}
	nLists := rs.r.Count(maxEvents)
	for i := 0; i < nLists && rs.r.Err() == nil; i++ {
		pos := int(rs.r.U32())
		st.Lists = append(st.Lists, topk.NRAListState{Pos: pos, Entries: rs.readEntryList()})
	}
	nCands := rs.r.Count(maxListEntries)
	for i := 0; i < nCands && rs.r.Err() == nil; i++ {
		c := topk.NRACandidateState{Item: tagging.ItemID(rs.r.U32()), Worst: int(rs.r.I64())}
		nSeen := rs.r.Count(nLists)
		for j := 0; j < nSeen && rs.r.Err() == nil; j++ {
			c.SeenIn = append(c.SeenIn, int(rs.r.U32()))
		}
		st.Cands = append(st.Cands, c)
	}
	if rs.r.Err() != nil {
		return topk.NewNRA(st.K)
	}
	n, err := topk.RestoreNRA(st)
	if err != nil {
		rs.r.Fail("%v", err)
		return topk.NewNRA(st.K)
	}
	return n
}

func (e *Engine) writeEvents(cw *ckpt.Writer) {
	pending := e.events.Pending()
	cw.U64(e.events.NextSeq())
	cw.Count(len(pending))
	for _, ev := range pending {
		cw.I64(int64(ev.At))
		cw.U64(ev.Seq)
		writeEagerEvent(cw, ev.Payload.(*eagerEvent))
	}

	targets := make([]tagging.UserID, 0, len(e.frozen))
	//p3q:orderinvariant collects keys into targets, which is sorted before use
	for id := range e.frozen {
		targets = append(targets, id)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	cw.Count(len(targets))
	for _, id := range targets {
		cw.U32(uint32(id))
		cw.Count(len(e.frozen[id]))
		for _, ev := range e.frozen[id] {
			writeEagerEvent(cw, ev)
		}
	}
}

func (rs *restorer) readEvents() {
	e := rs.e
	nextSeq := rs.r.U64()
	nPending := rs.r.Count(maxEvents)
	pending := make([]sim.Event, 0, ckpt.CapHint(nPending))
	for i := 0; i < nPending && rs.r.Err() == nil; i++ {
		at := time.Duration(rs.r.I64())
		seq := rs.r.U64()
		pending = append(pending, sim.Event{At: at, Seq: seq, Payload: rs.readEagerEvent()})
	}
	if rs.r.Err() == nil {
		if err := e.events.RestorePending(pending, nextSeq); err != nil {
			rs.r.Fail("%v", err)
		}
	}

	nTargets := rs.r.Count(rs.users)
	prev := -1
	for i := 0; i < nTargets && rs.r.Err() == nil; i++ {
		id := rs.readUserID()
		if int(id) <= prev {
			rs.r.Fail("frozen targets not in ascending order")
			return
		}
		prev = int(id)
		nEv := rs.r.Count(maxEvents)
		evs := make([]*eagerEvent, 0, ckpt.CapHint(nEv))
		for j := 0; j < nEv && rs.r.Err() == nil; j++ {
			evs = append(evs, rs.readEagerEvent())
		}
		if nEv == 0 {
			rs.r.Fail("frozen target %d has no events", id)
			return
		}
		e.frozen[id] = evs
	}
}

func writeEagerEvent(cw *ckpt.Writer, ev *eagerEvent) {
	cw.U8(uint8(ev.kind))
	cw.U64(ev.qid)
	cw.U32(uint32(ev.node))
	writeUserList(cw, ev.members)
	writeEntryList(cw, ev.plist)
	writeUserList(cw, ev.owners)
}

func (rs *restorer) readEagerEvent() *eagerEvent {
	ev := &eagerEvent{}
	kind := rs.r.U8()
	if rs.r.Err() == nil && kind > uint8(evBranchReturn) {
		rs.r.Fail("unknown event kind %d", kind)
		return ev
	}
	ev.kind = eagerEventKind(kind)
	ev.qid = rs.r.U64()
	// The queries section precedes the events, so the reference is
	// checkable right here.
	if _, ok := rs.e.queries[ev.qid]; rs.r.Err() == nil && !ok {
		rs.r.Fail("delivery event references unknown query %d", ev.qid)
		return ev
	}
	rs.inflight[ev.qid]++
	ev.node = rs.readUserID()
	ev.members = rs.readUserList(rs.users)
	ev.plist = rs.readEntryList()
	ev.owners = rs.readUserList(rs.users)
	return ev
}

// crossCheck validates what spans sections: branch query IDs (nodes precede
// queries in the stream) must name active queries, the ID allocator must
// sit past every issued ID so future queries cannot collide, and each
// query's in-flight counter must equal its delivery events in the stream —
// too high and the query can never settle, too low and it settles with
// deliveries outstanding. A settled query's counter is zero, so no event
// may name it. Event query IDs are validated at read time — the queries
// section precedes the events.
func (rs *restorer) crossCheck() error {
	e := rs.e
	for _, n := range e.nodes {
		bad, found := uint64(0), false
		//p3q:orderinvariant min-reduction: the smallest bad query ID wins regardless of visit order
		for qid := range n.branches {
			if qr := e.queries[qid]; (qr == nil || qr.done) && (!found || qid < bad) {
				bad, found = qid, true
			}
		}
		if found {
			if e.queries[bad] != nil {
				return fmt.Errorf("checkpoint: node %d holds a branch of settled query %d", n.id, bad)
			}
			return fmt.Errorf("checkpoint: node %d holds a branch of unknown query %d", n.id, bad)
		}
	}
	if n := len(e.queryOrder); n > 0 && e.queryOrder[n-1] >= e.nextQueryID {
		return fmt.Errorf("checkpoint: query ID allocator (%d) not past the last issued ID (%d)",
			e.nextQueryID, e.queryOrder[n-1])
	}
	for _, qid := range e.queryOrder {
		qr := e.queries[qid]
		if got, want := qr.inflight, rs.inflight[qid]; got != want {
			if qr.done {
				return fmt.Errorf("checkpoint: settled query %d has %d deliveries in flight", qid, want)
			}
			return fmt.Errorf("checkpoint: query %d counts %d deliveries in flight, the snapshot holds %d", qid, got, want)
		}
	}
	return nil
}

// digestFor reconstructs (and caches) the digest of a profile prefix:
// profiles are append-only, so NewDigest over SnapshotAt(version) with the
// engine's Bloom geometry reproduces the original digest bit for bit.
func (rs *restorer) digestFor(owner tagging.UserID, version int) *tagging.Digest {
	if rs.r.Err() != nil {
		return nil
	}
	if version < 0 || version > rs.ds.Profiles[owner].Len() {
		rs.r.Fail("digest of user %d at version %d, but the profile has %d actions", owner, version, rs.ds.Profiles[owner].Len())
		return nil
	}
	for _, d := range rs.digests[owner] {
		if d.Version == version {
			return d
		}
	}
	d := tagging.NewDigest(rs.ds.Profiles[owner].SnapshotAt(version), rs.cfg.BloomBits, rs.cfg.BloomHashes)
	rs.digests[owner] = append(rs.digests[owner], d)
	return d
}

// snapshotFor reconstructs a stored replica: the owner's profile truncated
// to the replicated version.
func (rs *restorer) snapshotFor(owner tagging.UserID, version int) tagging.Snapshot {
	if rs.r.Err() != nil {
		return tagging.Snapshot{}
	}
	if version < 0 || version > rs.ds.Profiles[owner].Len() {
		rs.r.Fail("replica of user %d at version %d, but the profile has %d actions", owner, version, rs.ds.Profiles[owner].Len())
		return tagging.Snapshot{}
	}
	return rs.ds.Profiles[owner].SnapshotAt(version)
}

// readUserID reads and bounds-checks one user ID.
func (rs *restorer) readUserID() tagging.UserID {
	id := rs.r.U32()
	if rs.r.Err() == nil && int(id) >= rs.users {
		rs.r.Fail("user ID %d outside population of %d", id, rs.users)
		return 0
	}
	return tagging.UserID(id)
}

func writeUserList(cw *ckpt.Writer, ids []tagging.UserID) {
	cw.Count(len(ids))
	for _, id := range ids {
		cw.U32(uint32(id))
	}
}

func (rs *restorer) readUserList(max int) []tagging.UserID {
	n := rs.r.Count(max)
	out := make([]tagging.UserID, 0, ckpt.CapHint(n))
	for i := 0; i < n && rs.r.Err() == nil; i++ {
		out = append(out, rs.readUserID())
	}
	return out
}

// writeUserSet serializes a user-ID set in ascending order (sets carry no
// order of their own; the canonical order keeps snapshots deterministic).
func writeUserSet(cw *ckpt.Writer, set map[tagging.UserID]struct{}) {
	writeUserList(cw, sortedIDs(set))
}

func (rs *restorer) readUserSet() map[tagging.UserID]struct{} {
	ids := rs.readAscending()
	set := make(map[tagging.UserID]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return set
}

// readAscending reads a user list that must be strictly ascending: a
// serialized set.
func (rs *restorer) readAscending() []tagging.UserID {
	ids := rs.readUserList(rs.users)
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			rs.r.Fail("user set not in ascending order")
			return nil
		}
	}
	return ids
}

func writeEntryList(cw *ckpt.Writer, es []topk.Entry) {
	cw.Count(len(es))
	for _, e := range es {
		cw.U32(uint32(e.Item))
		cw.I64(int64(e.Score))
	}
}

func (rs *restorer) readEntryList() []topk.Entry {
	n := rs.r.Count(maxListEntries)
	out := make([]topk.Entry, 0, ckpt.CapHint(n))
	for i := 0; i < n && rs.r.Err() == nil; i++ {
		out = append(out, topk.Entry{Item: tagging.ItemID(rs.r.U32()), Score: int(rs.r.I64())})
	}
	return out
}
