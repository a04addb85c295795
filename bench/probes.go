package main

import (
	"bytes"
	"time"

	"p3q/internal/bloom"
	"p3q/internal/checkpoint"
	"p3q/internal/core"
	"p3q/internal/gossip"
	"p3q/internal/randx"
	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/topk"
	"p3q/internal/trace"
)

// The micro probes time single calls into the layers under an engine
// cycle, on inputs drawn from the traced workload's own dataset, so that
// a regression of the cycle can be pinned on a layer. Each probe loops
// for env.sz.probeBudget and reports nanoseconds per call.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// perCall loops batch, which performs and returns a number of calls,
// until the probe budget is spent.
func (v *env) perCall(batch func() int) float64 {
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < v.sz.probeBudget || calls == 0 {
		calls += batch()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// probeUsers is how many profiles of the dataset the probes cycle over.
func probeUsers(ds *trace.Dataset) int { return min(ds.Users(), 512) }

// probeLazyLayers times the layers a lazy cycle is made of.
func probeLazyLayers(v *env, ds *trace.Dataset, cfg core.Config, p *pass) {
	n := probeUsers(ds)
	rng := randx.NewSource(v.seed)

	filter := bloom.New(cfg.BloomBits, cfg.BloomHashes)
	p.vals["bloom.add_ns"] = v.perCall(func() int {
		calls := 0
		for u := 0; u < n; u++ {
			filter.Reset()
			for _, it := range ds.Profiles[u].Items() {
				filter.Add(uint64(it))
			}
			calls += len(ds.Profiles[u].Items())
		}
		return calls
	})
	p.vals["bloom.test_ns"] = v.perCall(func() int {
		calls := 0
		for u := 0; u < n; u++ {
			for _, it := range ds.Profiles[u].Items() {
				if filter.Test(uint64(it)) {
					sink++
				}
			}
			calls += len(ds.Profiles[u].Items())
		}
		return calls
	})

	var builder tagging.DigestBuilder
	digests := make([]*tagging.Digest, n)
	p.vals["tagging.digest_build_ns"] = v.perCall(func() int {
		for u := 0; u < n; u++ {
			digests[u] = builder.Build(ds.Profiles[u].Snapshot(), cfg.BloomBits, cfg.BloomHashes)
		}
		return n
	})
	scratch := builder.Build(ds.Profiles[0].Snapshot(), cfg.BloomBits, cfg.BloomHashes)
	p.vals["tagging.digest_rebuild_ns"] = v.perCall(func() int {
		for u := 0; u < n; u++ {
			builder.Rebuild(scratch, ds.Profiles[u].Snapshot())
		}
		return n
	})
	p.vals["tagging.common_score_ns"] = v.perCall(func() int {
		for u := 0; u < n; u++ {
			sink += ds.Profiles[u].CommonScore(ds.Profiles[(u+1)%n].Snapshot())
		}
		return n
	})

	// A view of r descriptors merging a received buffer of r, and
	// building the buffer it sends: the bottom-layer exchange of one node.
	descriptors := make([]gossip.Descriptor, n)
	for u := range descriptors {
		descriptors[u] = gossip.Descriptor{Node: tagging.UserID(u), Digest: digests[u]}
	}
	view := gossip.NewView(0, cfg.R)
	view.Bootstrap(descriptors[1 : 1+min(cfg.R, n-1)])
	p.vals["gossip.view_merge_ns"] = v.perCall(func() int {
		calls := 0
		for lo := 1; lo+cfg.R <= n; lo += cfg.R {
			view.Merge(descriptors[lo:lo+cfg.R], rng)
			calls++
		}
		return calls
	})
	var buf []gossip.Descriptor
	var smp randx.Sampler
	p.vals["gossip.send_buffer_ns"] = v.perCall(func() int {
		for i := 0; i < n; i++ {
			buf = view.SendBufferInto(descriptors[0], rng, buf, &smp)
		}
		sink += len(buf)
		return n
	})

	nw := sim.NewNetwork(n)
	ledger := nw.NewLedger()
	p.vals["sim.ledger_send_ns"] = v.perCall(func() int {
		nw.InitLedger(ledger)
		for u := 0; u < n; u++ {
			ledger.Send(sim.NodeID(u), sim.NodeID((u+1)%n), sim.MsgTopDigest, digests[u].SizeBytes())
		}
		return n
	})

	// One node's personal network absorbing scored candidates in
	// integration-sized batches, as the commit phase does.
	scores := make([]int, n)
	for u := 1; u < n; u++ {
		scores[u] = 1 + ds.Profiles[0].CommonScore(ds.Profiles[u].Snapshot())
	}
	pn := core.NewPersonalNetwork(0, cfg.S, cfg.C)
	p.vals["core.pnet_upsert_ns"] = v.perCall(func() int {
		for u := 1; u < n; u++ {
			pn.Upsert(tagging.UserID(u), scores[u]+rng.Intn(4), digests[u])
			if u%8 == 0 {
				sink += len(pn.Rebalance())
			}
		}
		return n - 1
	})
}

// probeEagerLayers times the query-side layers: the partial result list a
// reached node computes over its stored profiles, and the querier's
// incremental NRA over the lists of her whole personal network.
func probeEagerLayers(v *env, ds *trace.Dataset, e *core.Engine, queries []trace.Query, p *pass) {
	queries = queries[:min(len(queries), 256)]
	tagSets := make([]topk.TagSet, len(queries))
	stored := make([][]tagging.Snapshot, len(queries))
	lists := make([][][]topk.Entry, len(queries))
	for i, q := range queries {
		tagSets[i] = topk.NewTagSet(q.Tags)
		node := e.Node(q.Querier)
		stored[i] = node.KnownProfiles()
		for _, member := range node.PersonalNetwork().Members() {
			snap := []tagging.Snapshot{ds.Profiles[member].Snapshot()}
			if l := topk.PartialList(snap, tagSets[i]); len(l) > 0 {
				lists[i] = append(lists[i], l)
			}
		}
	}
	p.vals["topk.partial_list_ns"] = v.perCall(func() int {
		for i := range queries {
			sink += len(topk.PartialList(stored[i], tagSets[i]))
		}
		return len(queries)
	})
	// One call is one query: the NRA of a 50-member network re-ranks its
	// candidates on every list, so a batch over all queries would overrun
	// the probe budget many times.
	scanned, total, next := 0, 0, 0
	k := e.Config().K
	p.vals["topk.nra_run_ns_per_list"] = v.perCall(func() int {
		i := next % len(queries)
		next++
		nra := topk.NewNRA(k)
		for _, l := range lists[i] {
			nra.Run([][]topk.Entry{l})
		}
		scanned += nra.ScannedEntries()
		total += nra.TotalEntries()
		return max(len(lists[i]), 1)
	})
	p.vals["topk.nra_scanned_ratio"] = ratio(float64(scanned), float64(total))
}

// probeEventQueue times Schedule plus PopUntil with 10k events pending:
// the per-message price of the asynchronous delivery path.
func probeEventQueue(v *env) float64 {
	const pending = 10000
	rng := randx.NewSource(v.seed)
	q := sim.NewEventQueue()
	now := time.Duration(0)
	for i := 0; i < pending; i++ {
		q.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, i)
	}
	return v.perCall(func() int {
		for i := 0; i < 1000; i++ {
			q.Schedule(now+time.Duration(rng.Intn(1000))*time.Millisecond, i)
			now, _ = q.NextAt()
			q.PopUntil(now)
		}
		return 1000
	})
}

// probeCheckpointWords times the bulk primitive profile logs travel
// through, Writer.U64s and Reader.U64s, per 64-bit word.
func probeCheckpointWords(v *env) float64 {
	words := make([]uint64, 1<<16)
	rng := randx.NewSource(v.seed)
	for i := range words {
		words[i] = rng.Uint64()
	}
	out := make([]uint64, len(words))
	var buf bytes.Buffer
	return v.perCall(func() int {
		buf.Reset()
		w := checkpoint.NewWriter(&buf)
		w.U64s(words)
		if w.Close() != nil {
			return 1
		}
		r := checkpoint.NewReader(&buf)
		r.U64s(out)
		if r.Err() != nil || out[len(out)-1] != words[len(words)-1] {
			sink++
		}
		return 2 * len(words)
	})
}
