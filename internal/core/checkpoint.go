package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"time"

	"p3q/internal/binio"
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
//     ascending query ID, each in list order (order is protocol state: it
//     drives destination selection).
//   - Query runs, in issue order — which is ascending ID, the IDs dense
//     from zero — each as one of two records sharing a
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
//   - The network substrate: liveness and the per-kind traffic counters.
//   - The event machinery: the pending delivery queue with its (At, Seq)
//     order and scheduling counter, and the store-and-forward events
//     frozen at departed nodes, per target in freeze order.
//   - Every RNG stream state (engine, latency, per node), the cycle and
//     kill sequence counters that label split streams, and the number of
//     queries issued.
//
// The engine keeps all of this state in the order it is written — slices
// by node index, by query ID or ascending — so nothing is sorted here.
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
	e.writeParams(&cw.Writer)
	e.writeCounters(cw)
	e.writeProfiles(&cw.Writer)
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
	rs := &restorer{r: cr}

	users := rs.readParams(cfg)
	if cr.Err() != nil {
		return nil, cr.Err()
	}
	e := &Engine{
		cfg:    rs.cfg,
		events: sim.NewEventQueue(),
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
	// issued is the query count of the counters section, which the queries
	// section must hold.
	issued uint64
	// inflight counts the delivery events read per query ID, pending and
	// frozen, for crossCheck to hold against QueryRun.inflight.
	inflight []int

	items, tags int // the dataset's spaces, as the params block holds them
}

// param is one row of the protocol's identity: a name, a value and the
// value's width in the checkpoint's params block (1, 4 or 8 bytes,
// little-endian).
type param struct {
	name  string
	value uint64
	width int
}

// protocolParams is the protocol's identity, row by row in the order the
// params block holds it: the population and the item and tag spaces, every
// Config field that changes what the protocol computes, and the pacing
// constants. Workers and Latency have no row: both are execution choices
// the determinism contract already spans. CAssign has none either; the
// node section checks each node's capacity.
func protocolParams(users, items, tags int, cfg Config) []param {
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	return []param{
		{"users", uint64(users), 4},
		{"items", uint64(items), 4},
		{"tags", uint64(tags), 4},
		{"S", uint64(cfg.S), 4},
		{"C", uint64(cfg.C), 4},
		{"R", uint64(cfg.R), 4},
		{"K", uint64(cfg.K), 4},
		{"MaxDigestsPerGossip", uint64(cfg.MaxDigestsPerGossip), 4},
		{"BloomBits", uint64(cfg.BloomBits), 4},
		{"BloomHashes", uint64(cfg.BloomHashes), 4},
		{"MaxProbes", maxProbes, 4},
		{"Alpha", math.Float64bits(cfg.Alpha), 8},
		{"EagerPeriod", uint64(EagerPeriod), 8},
		{"LazyPeriod", uint64(LazyPeriod), 8},
		{"Seed", cfg.Seed, 8},
		{"DisableEagerBias", flag(cfg.DisableEagerBias), 1},
		{"StaticNetworks", flag(cfg.StaticNetworks), 1},
	}
}

func (e *Engine) writeParams(w *binio.Writer) {
	for _, p := range protocolParams(len(e.nodes), e.ds.NumItems, e.ds.NumTags, e.cfg) {
		for i := 0; i < p.width; i++ {
			w.U8(uint8(p.value >> (8 * i)))
		}
	}
}

// readParams reads the params block and returns the population size. The
// population and the item and tag spaces are the snapshot's; cfg, the
// caller's configuration, is sanitized for that population into rs.cfg,
// and every later row must hold what rs.cfg gives it.
func (rs *restorer) readParams(cfg Config) int {
	r := rs.r
	users, items, tags := int(r.U32()), int(r.U32()), int(r.U32())
	switch {
	case r.Err() != nil:
	case users < 1 || users > ckpt.MaxUsers:
		r.Fail("user count %d outside [1, %d]", users, ckpt.MaxUsers)
	case cfg.CAssign != nil && len(cfg.CAssign) != users:
		r.Fail("CAssign has %d entries for %d users", len(cfg.CAssign), users)
	}
	if r.Err() != nil {
		return 0
	}
	rs.users, rs.items, rs.tags = users, items, tags
	rs.cfg = cfg.sanitize(users)
	for _, p := range protocolParams(users, items, tags, rs.cfg)[3:] { // past the three just read
		var got uint64
		for i := 0; i < p.width; i++ {
			got |= uint64(r.U8()) << (8 * i)
		}
		if got != p.value && r.Err() == nil {
			r.Fail("config mismatch: %s is %d in the snapshot but %d in the restoring config", p.name, got, p.value)
		}
	}
	return users
}

// HandshakeSums returns the FNV-1a sums of the params block and of the
// profile section, each exactly as Snapshot writes it: engines whose sums
// agree run the same protocol over the same profiles, whatever their
// Workers and Latency.
func (e *Engine) HandshakeSums() (params, profiles uint64) {
	sum := func(write func(*binio.Writer)) uint64 {
		h := fnv.New64a()
		w := binio.MakeWriter(h, "handshake")
		write(&w)
		_ = w.Flush() // a hash never fails a write
		return h.Sum64()
	}
	return sum(e.writeParams), sum(e.writeProfiles)
}

func (e *Engine) writeCounters(cw *ckpt.Writer) {
	cw.U64(uint64(e.lazyCycles))
	cw.U64(uint64(e.eagerCycles))
	cw.U64(e.cycleSeq)
	cw.U64(e.killSeq)
	cw.U64(uint64(len(e.queries)))
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
	rs.issued = rs.r.U64()
	e.now = time.Duration(rs.r.I64())
	e.naiveExchangeBytes = rs.r.U64()
	e.rng = randx.Restore(rs.r.U64())
	e.latRng = randx.Restore(rs.r.U64())
}

func (e *Engine) writeProfiles(w *binio.Writer) {
	var keys []uint64
	for _, p := range e.ds.Profiles {
		w.Count(p.Len())
		keys = keys[:0]
		for _, a := range p.Actions() {
			keys = append(keys, a.Key())
		}
		w.U64s(keys)
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
		if ds.NumItems != rs.items || ds.NumTags != rs.tags {
			rs.r.Fail("dataset spaces (%d items, %d tags) do not match the snapshot (%d, %d)",
				ds.NumItems, ds.NumTags, rs.items, rs.tags)
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
		rs.ds = &trace.Dataset{Profiles: profiles, NumItems: rs.items, NumTags: rs.tags}
	} else {
		rs.ds = ds
	}
}

func (e *Engine) writeNetwork(cw *ckpt.Writer) {
	for u := range e.nodes {
		cw.Bool(e.net.Online(tagging.UserID(u)))
	}
	writeTraffic(cw, e.net.Total())
}

func (rs *restorer) readNetwork() {
	for u := 0; u < rs.users && rs.r.Err() == nil; u++ {
		rs.e.net.SetOnline(tagging.UserID(u), rs.r.Bool())
	}
	rs.e.net.RestoreTraffic(rs.readTraffic())
}

// writeTraffic and readTraffic go through Traffic.Snapshot and Restore, so
// snapshotcomplete's check of Traffic covers the codec that runs.
func writeTraffic(cw *ckpt.Writer, t sim.Traffic) {
	msgs, bytes := t.Snapshot()
	for k := range msgs {
		cw.U64(msgs[k])
		cw.U64(bytes[k])
	}
}

func (rs *restorer) readTraffic() sim.Traffic {
	var t sim.Traffic
	msgs, bytes := t.Snapshot()
	for k := range msgs {
		msgs[k] = rs.r.U64()
		bytes[k] = rs.r.U64()
	}
	t.Restore(msgs, bytes)
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
	cw.U64(uint64(pn.clock))
	cw.Count(len(pn.ranking))
	for _, en := range pn.ranking {
		cw.U32(uint32(en.ID))
		cw.I64(int64(en.Score))
		cw.U64(uint64(en.last))
		cw.U32(uint32(en.Digest.Version))
		cw.Bool(en.Stored != noReplica)
		if en.Stored != noReplica {
			cw.U32(uint32(en.Stored))
		}
	}

	cw.Count(len(n.branches))
	for _, b := range n.branches {
		cw.U64(b.qid)
		writeUserList(cw, b.members)
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
	clock := rs.r.U64()
	if rs.r.Err() == nil && clock > math.MaxUint32 {
		rs.r.Fail("node %d: personal network clock %d exceeds MaxUint32", id, clock)
	}
	n.pnet.clock = uint32(clock)
	nPnet := rs.r.Count(s)
	if nPnet > 0 {
		n.pnet.reserve(ckpt.CapHint(nPnet))
	}
	for i := 0; i < nPnet && rs.r.Err() == nil; i++ {
		owner := rs.readUserID()
		score := rs.r.I64()
		last := rs.r.U64()
		version := int(rs.r.U32())
		stored := int64(noReplica)
		if rs.r.Bool() {
			stored = int64(rs.r.U32())
		}
		if rs.r.Err() != nil {
			break
		}
		switch {
		case owner == id:
			rs.r.Fail("node %d: personal network contains self", id)
		case score < 1 || score > math.MaxInt32:
			rs.r.Fail("node %d: score %d of neighbour %d outside [1, MaxInt32]", id, score, owner)
		case last > clock:
			rs.r.Fail("node %d: neighbour %d gossip stamp %d exceeds clock %d", id, owner, last, clock)
		case n.pnet.Contains(owner):
			rs.r.Fail("node %d: duplicate neighbour %d", id, owner)
		case stored > int64(rs.ds.Profiles[owner].Len()):
			rs.r.Fail("replica of user %d at version %d, but the profile has %d actions", owner, stored, rs.ds.Profiles[owner].Len())
		}
		if rs.r.Err() != nil {
			break
		}
		en := Entry{ID: owner, Score: int32(score), Stored: int32(stored), last: uint32(last), Digest: rs.digestFor(owner, version)}
		if ln := len(n.pnet.ranking); ln > 0 {
			p := &n.pnet.ranking[ln-1]
			if !rankBefore(p.Score, p.ID, en.Score, en.ID) {
				rs.r.Fail("node %d: personal network ranking out of order at neighbour %d", id, owner)
				break
			}
		}
		// The entries arrive in rank order (just validated), so the dense
		// layout is rebuilt by plain appends into the ranking reserved
		// above; appendEntry feeds the by-owner index.
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
		n.branches = append(n.branches, queryBranch{qid: qid, members: rs.readUserList(rs.users)})
	}
	return n
}

func (e *Engine) writeQueries(cw *ckpt.Writer) {
	cw.Count(len(e.queries))
	for _, qr := range e.queries {
		cw.U64(qr.ID)
		cw.U32(uint32(qr.Query.Querier))
		cw.Count(len(qr.Query.Tags))
		for _, t := range qr.Query.Tags {
			cw.U32(uint32(t))
		}
		cw.U32(uint32(qr.Query.Item))
		cw.U32(uint32(qr.needed))
		cw.U32(uint32(qr.cycles))
		cw.Bool(qr.Done())
		cw.U32(uint32(qr.partialMsgs))
		cw.U64(qr.bytes.Forwarded)
		cw.U64(qr.bytes.Returned)
		cw.U64(qr.bytes.PartialResults)
		cw.U64(qr.bytes.Maintenance)
		cw.I64(int64(qr.issuedAt))
		cw.Bool(qr.hasFirst)
		cw.I64(int64(qr.firstAt))
		cw.I64(int64(qr.doneAt))
		w := qr.work
		if w == nil {
			cw.U64(qr.settledSeq)
			cw.U32(uint32(qr.usedCount))
			writeUserList(cw, qr.reached)
			writeEntryList(cw, qr.results)
			continue
		}
		cw.U32(uint32(w.inflight))
		cw.U64(qr.settledSeq)
		writeUserList(cw, w.used)
		writeUserList(cw, qr.reached)
		writeUserList(cw, w.activeNodes)
		writeEntryList(cw, qr.results)
		cw.Count(len(w.pending))
		for _, l := range w.pending {
			writeEntryList(cw, l)
		}
		writeNRA(cw, w.nra)
	}
}

func (rs *restorer) readQueries() {
	e := rs.e
	nQ := rs.r.Count(maxEvents)
	if rs.r.Err() == nil && uint64(nQ) != rs.issued {
		rs.r.Fail("query counter %d, but the snapshot holds %d queries", rs.issued, nQ)
		return
	}
	e.queries = make([]*QueryRun, 0, ckpt.CapHint(nQ))
	for i := 0; i < nQ && rs.r.Err() == nil; i++ {
		qr := &QueryRun{e: e}
		qr.ID = rs.r.U64()
		if rs.r.Err() == nil && qr.ID != uint64(i) {
			rs.r.Fail("query ID %d at position %d: query IDs not dense from 0", qr.ID, i)
			return
		}
		qr.Query.Querier = rs.readUserID()
		nTags := rs.r.Count(maxQueryTags)
		qr.Query.Tags = make([]tagging.TagID, 0, ckpt.CapHint(nTags))
		for j := 0; j < nTags && rs.r.Err() == nil; j++ {
			qr.Query.Tags = append(qr.Query.Tags, tagging.TagID(rs.r.U32()))
		}
		qr.Query.Item = tagging.ItemID(rs.r.U32())
		qr.needed = int(rs.r.U32())
		qr.cycles = int(rs.r.U32())
		done := rs.r.Bool()
		qr.partialMsgs = int(rs.r.U32())
		qr.bytes.Forwarded = rs.r.U64()
		qr.bytes.Returned = rs.r.U64()
		qr.bytes.PartialResults = rs.r.U64()
		qr.bytes.Maintenance = rs.r.U64()
		qr.issuedAt = time.Duration(rs.r.I64())
		qr.hasFirst = rs.r.Bool()
		qr.firstAt = time.Duration(rs.r.I64())
		qr.doneAt = time.Duration(rs.r.I64())
		if done {
			qr.settledSeq = rs.r.U64()
			qr.usedCount = int(rs.r.U32())
			if rs.r.Err() == nil && qr.usedCount > rs.users {
				rs.r.Fail("settled query %d used %d profiles of a population of %d", qr.ID, qr.usedCount, rs.users)
			}
			qr.reached = rs.readAscending()
			qr.results = rs.readEntryList()
		} else {
			w := &queryWork{qset: topk.NewTagSet(qr.Query.Tags)}
			w.inflight = int(rs.r.U32())
			qr.settledSeq = rs.r.U64()
			w.used = rs.readAscending()
			qr.reached = rs.readAscending()
			w.activeNodes = rs.readAscending()
			qr.results = rs.readEntryList()
			nPend := rs.r.Count(maxEvents)
			for j := 0; j < nPend && rs.r.Err() == nil; j++ {
				w.pending = append(w.pending, rs.readEntryList())
			}
			w.nra = rs.readNRA()
			qr.work = w
		}
		if rs.r.Err() != nil {
			return
		}
		e.queries = append(e.queries, qr)
		if !done {
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

	targets := 0
	for _, n := range e.nodes {
		if len(n.frozen) > 0 {
			targets++
		}
	}
	cw.Count(targets)
	for u, n := range e.nodes {
		if len(n.frozen) == 0 {
			continue
		}
		cw.U32(uint32(u))
		cw.Count(len(n.frozen))
		for _, ev := range n.frozen {
			writeEagerEvent(cw, ev)
		}
	}
}

func (rs *restorer) readEvents() {
	e := rs.e
	rs.inflight = make([]int, len(e.queries))
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
		e.nodes[id].frozen = evs
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
	if rs.r.Err() != nil {
		return ev
	}
	if ev.qid >= uint64(len(rs.e.queries)) {
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
// queries in the stream) must name active queries, and each query's
// in-flight counter must equal its delivery events in the stream —
// too high and the query can never settle, too low and it settles with
// deliveries outstanding. A settled query's counter is zero, so no event
// may name it. Event query IDs are validated at read time — the queries
// section precedes the events.
func (rs *restorer) crossCheck() error {
	e := rs.e
	for _, n := range e.nodes {
		for _, b := range n.branches {
			if b.qid >= uint64(len(e.queries)) {
				return fmt.Errorf("checkpoint: node %d holds a branch of unknown query %d", n.id, b.qid)
			}
			if e.queries[b.qid].Done() {
				return fmt.Errorf("checkpoint: node %d holds a branch of settled query %d", n.id, b.qid)
			}
		}
	}
	for qid, qr := range e.queries {
		if got, want := qr.InFlight(), rs.inflight[qid]; got != want {
			if qr.Done() {
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
