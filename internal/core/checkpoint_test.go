package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"p3q/internal/idtab"
	"p3q/internal/sim"
	"p3q/internal/tagging"
	"p3q/internal/trace"
)

// Tests for the checkpoint/restore subsystem. The correctness bar is the
// repository's determinism contract extended across a snapshot boundary:
// snapshot at cycle N, restore, run M more cycles, and the fingerprint must
// equal an uninterrupted N+M run byte for byte — with and without a latency
// model, for Workers 1/2/7, including snapshots taken while events are
// frozen at departed nodes.

// checkpointCfg is the shared configuration of the split workload.
func checkpointCfg(workers int, lat sim.LatencyModel) Config {
	cfg := smallCfg()
	cfg.S = 15
	cfg.C = 5
	cfg.Workers = workers
	cfg.Latency = lat
	return cfg
}

// checkpointPhaseA drives an engine into a deliberately messy mid-run
// state: organically converged networks, applied profile changes, a query
// burst, and a churn wave striking mid-burst — so the snapshot carries
// stalled queries, remaining-list branches spread over the population and
// (under a latency model) pending and frozen delivery events. It returns
// the engine, its world and the killed IDs the continuation revives.
func checkpointPhaseA(t *testing.T, cfg Config) (*Engine, *testWorld, []tagging.UserID) {
	t.Helper()
	w := newWorld(t, 120, cfg, 77)
	e := New(w.ds, cfg)
	e.Bootstrap()
	e.RunLazy(8)

	trace.ApplyChanges(w.ds, trace.GenerateChanges(w.ds, trace.ChangeParams{
		FracUsers: 0.3, MeanNew: 4, SigmaNew: 0.5, MaxNew: 15, Seed: 9,
	}))
	e.RunLazy(4)

	for _, q := range trace.GenerateQueries(w.ds, 5)[:20] {
		e.IssueQuery(q)
	}
	e.RunEager(2)

	killed := e.Kill(0.25)
	if len(killed) == 0 {
		t.Fatal("Kill removed nobody")
	}
	for i := 0; i < 3; i++ {
		e.EagerCycle() // survivors gossip around the holes; async events freeze
	}
	e.RunLazy(1)
	return e, w, killed
}

// checkpointPhaseB continues the workload after the (real or hypothetical)
// snapshot point: revival, the stalled queries resuming to completion, a
// second churn wave and lazy maintenance.
func checkpointPhaseB(e *Engine, killed []tagging.UserID) string {
	e.RunLazy(1)
	e.Revive(killed)
	e.RunEager(30)
	second := e.Kill(0.25)
	e.RunLazy(4)
	e.Revive(second)
	e.RunLazy(4)
	return engineFingerprint(e)
}

// resumedRun executes phase A at snapWorkers, snapshots, restores at
// restoreWorkers (over the phase-A dataset, the warm-fork path), and runs
// phase B on the restored engine. wantFrozen asserts the snapshot was taken
// while events were frozen at departed nodes.
func resumedRun(t *testing.T, lat sim.LatencyModel, snapWorkers, restoreWorkers int, wantFrozen bool) string {
	t.Helper()
	e, w, killed := checkpointPhaseA(t, checkpointCfg(snapWorkers, lat))
	if wantFrozen && len(e.frozen) == 0 {
		t.Fatal("no events frozen at departed nodes at the snapshot point; the scenario must cover mid-burst snapshots")
	}
	requireQueryMix(t, e)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := Restore(&buf, w.ds, checkpointCfg(restoreWorkers, lat))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return checkpointPhaseB(restored, killed)
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	// Heavy-tailed latency pushes deliveries across cycle boundaries, so
	// the async snapshot carries in-flight events and frozen
	// store-and-forward state.
	lognormal := sim.LogNormalLatency{Median: 2 * time.Second, Sigma: 1.0}
	for _, mode := range []struct {
		name string
		lat  sim.LatencyModel
	}{
		{"sync", nil},
		{"async", lognormal},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e, _, killed := checkpointPhaseA(t, checkpointCfg(1, mode.lat))
			want := checkpointPhaseB(e, killed)
			for _, workers := range []int{1, 2, 7} {
				got := resumedRun(t, mode.lat, workers, workers, mode.lat != nil)
				if got != want {
					t.Fatalf("Workers=%d resumed run diverged from the uninterrupted run:\n%s",
						workers, firstDiff(want, got))
				}
			}
			// The snapshot itself is worker-count independent: snapshot at
			// one worker count, restore at another.
			if got := resumedRun(t, mode.lat, 7, 2, mode.lat != nil); got != want {
				t.Fatalf("snapshot at Workers=7 restored at Workers=2 diverged:\n%s", firstDiff(want, got))
			}
		})
	}
}

func TestCheckpointEmbeddedDatasetResume(t *testing.T) {
	// Restoring with ds == nil rebuilds the dataset from the embedded
	// profile logs (the cross-process path: no base trace at hand). The
	// continuation must match the warm-fork restore byte for byte.
	e, w, killed := checkpointPhaseA(t, checkpointCfg(2, nil))
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	warm, err := Restore(bytes.NewReader(raw), w.ds, checkpointCfg(2, nil))
	if err != nil {
		t.Fatalf("Restore with dataset: %v", err)
	}
	embedded, err := Restore(bytes.NewReader(raw), nil, checkpointCfg(2, nil))
	if err != nil {
		t.Fatalf("Restore with embedded dataset: %v", err)
	}
	if embedded.Dataset() == w.ds {
		t.Fatal("embedded restore returned the caller's dataset")
	}
	a, b := checkpointPhaseB(warm, killed), checkpointPhaseB(embedded, killed)
	if a != b {
		t.Fatalf("embedded-dataset resume diverged from warm-fork resume:\n%s", firstDiff(a, b))
	}
}

func TestCheckpointSnapshotRoundTripBytes(t *testing.T) {
	// Snapshot -> Restore -> Snapshot must reproduce the identical byte
	// stream: the strongest cheap proof that nothing is lost or reordered.
	e, _, _ := checkpointPhaseA(t, checkpointCfg(2, sim.FixedLatency(7*time.Second)))
	var first bytes.Buffer
	if err := e.Snapshot(&first); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(first.Bytes()), nil, checkpointCfg(2, sim.FixedLatency(7*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := restored.Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("snapshot round trip changed the byte stream (%d vs %d bytes)", first.Len(), second.Len())
	}
}

// midFlightEngine issues a query burst over converged networks and runs two
// eager cycles under the given model.
func midFlightEngine(t *testing.T, lat sim.LatencyModel) (*Engine, *testWorld, Config) {
	t.Helper()
	cfg := checkpointCfg(2, lat)
	w := newWorld(t, 120, cfg, 91)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	for _, q := range trace.GenerateQueries(w.ds, 6)[:25] {
		e.IssueQuery(q)
	}
	e.RunEager(2)
	return e, w, cfg
}

func TestCheckpointResumeUnderOtherLatencyModel(t *testing.T) {
	// Config.Latency is free at Restore: deliveries already in flight keep
	// their arrival times, and the run must still complete every query —
	// with no model (nothing may strand in the queue) as well as with one.
	lognormal := sim.LogNormalLatency{Median: 4 * time.Second, Sigma: 1.0}
	for _, tc := range []struct {
		name         string
		snap, resume sim.LatencyModel
	}{
		{"lognormal-to-nil", lognormal, nil},
		{"nil-to-lognormal", nil, lognormal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, w, cfg := midFlightEngine(t, tc.snap)
			if tc.snap != nil && e.PendingEvents() == 0 {
				t.Fatal("nothing in flight at the snapshot point; scenario too weak")
			}
			var buf bytes.Buffer
			if err := e.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			cfg.Latency = tc.resume
			restored, err := Restore(&buf, w.ds, cfg)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if ran := restored.RunEager(400); ran >= 400 {
				t.Fatal("restored run did not settle within the cycle budget")
			}
			for _, qr := range restored.Queries() {
				if !qr.Done() || qr.ProfilesUsed() != qr.ProfilesNeeded() {
					t.Fatalf("query %d: done=%v with %d of %d profiles", qr.ID, qr.Done(), qr.ProfilesUsed(), qr.ProfilesNeeded())
				}
			}
			if n := restored.PendingEvents(); n != 0 {
				t.Fatalf("%d events stranded in the queue", n)
			}
		})
	}
	// A snapshot taken between cycles with nothing in flight, restored under
	// a model it was not taken with, runs exactly like a cold engine built
	// with that model — the converge-once-fork-many property
	// examples/warmstart relies on.
	t.Run("quiescent-nil-to-fixed", func(t *testing.T) {
		cfg := checkpointCfg(2, nil)
		w := newWorld(t, 120, cfg, 91)
		seeded := func(cfg Config) *Engine {
			e := New(w.ds, cfg)
			e.SeedIdealNetworks(w.ideal)
			return e
		}
		burst := func(e *Engine) string {
			for _, q := range trace.GenerateQueries(w.ds, 6)[:25] {
				e.IssueQuery(q)
			}
			e.RunEager(40)
			return engineFingerprint(e)
		}
		var buf bytes.Buffer
		if err := seeded(cfg).Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		cfg.Latency = sim.FixedLatency(50 * time.Millisecond)
		restored, err := Restore(&buf, w.ds, cfg)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if got, want := burst(restored), burst(seeded(cfg)); got != want {
			t.Fatalf("restored engine diverged from the cold build:\n%s", firstDiff(want, got))
		}
	})
}

func TestRestoreRejectsInflightMismatch(t *testing.T) {
	// A query's in-flight counter gates its settling, so a snapshot whose
	// counter disagrees with the events it carries must not restore.
	e, _, cfg := midFlightEngine(t, sim.FixedLatency(7*time.Second))
	var qr *QueryRun
	for _, q := range e.Queries() {
		if q.InFlight() > 0 {
			qr = q
			break
		}
	}
	if qr == nil {
		t.Fatal("no query with deliveries in flight; scenario too weak")
	}
	for _, delta := range []int{0, 1, -1} {
		qr.inflight += delta
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		qr.inflight -= delta
		_, err := Restore(&buf, nil, cfg)
		switch {
		case delta == 0 && err != nil:
			t.Fatalf("the unaltered snapshot does not restore: %v", err)
		case delta != 0 && (err == nil || !strings.Contains(err.Error(), "in flight")):
			t.Fatalf("in-flight counter off by %+d surfaced as %v, want an in-flight mismatch", delta, err)
		}
	}
}

// smallSnapshot builds a compact valid checkpoint for the rejection tests
// and the fuzzer seed corpus.
func smallSnapshot(t testing.TB) ([]byte, Config) {
	t.Helper()
	_, raw, cfg := smallSnapshotOf(t)
	return raw, cfg
}

// smallSnapshotOf is smallSnapshot together with the engine it was taken of.
// Three queries run to full recall before two more are issued and gossiped
// for one cycle, so the snapshot carries both kinds of query record.
func smallSnapshotOf(t testing.TB) (*Engine, []byte, Config) {
	t.Helper()
	cfg := smallCfg()
	cfg.Workers = 1
	w := newWorld(t, 40, cfg, 11)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	queries := trace.GenerateQueries(w.ds, 3)
	for _, q := range queries[:3] {
		e.IssueQuery(q)
	}
	e.RunEager(10)
	for _, q := range queries[3:5] {
		e.IssueQuery(q)
	}
	e.RunEager(1)
	requireQueryMix(t, e)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return e, buf.Bytes(), cfg
}

// requireQueryMix fails unless the engine holds both a settled and an
// active query, so a snapshot of it carries both kinds of query record.
func requireQueryMix(t testing.TB, e *Engine) {
	t.Helper()
	settled := e.Stats().QueriesDone
	if active := len(e.Queries()) - settled; settled == 0 || active == 0 {
		t.Fatalf("the snapshot point holds %d settled and %d active queries; it must hold both", settled, active)
	}
}

// hostileCount is a truncated checkpoint one of whose counts claims the most
// its limit allows.
type hostileCount struct {
	name string
	raw  []byte
}

// hostileCounts cuts the small snapshot right behind the first profile's
// action count and behind node 0's evaluated-memo, view and personal-network
// counts, each raised to its maximum. The offsets follow the layout Snapshot
// writes; the test checks them against the counts actually found there.
func hostileCounts(t testing.TB) ([]hostileCount, Config) {
	t.Helper()
	e, raw, cfg := smallSnapshotOf(t)
	const header = 4 + 2                  // magic, version
	const params = 11*4 + 8 + 2*8 + 8 + 2 // writeParams
	const counters = 9 * 8                // writeCounters
	users, n0 := len(e.nodes), e.nodes[0]
	profile0 := header + params + counters
	node0 := profile0
	for _, p := range e.ds.Profiles {
		node0 += 4 + 8*p.Len()
	}
	node0 += users + (1+users)*16*len(sim.Traffic{}.Msgs) // writeNetwork
	memo := node0 + 8 + 4                                 // rng, evalVersion
	evaluated := 0
	n0.evaluated.Range(func(uint32, int32) { evaluated++ })
	view := memo + 4 + 8*evaluated
	pnet := view + 4 + 8*n0.view.Size() + 4 + 4 + 8 // s, c, clock

	var out []hostileCount
	for _, c := range []struct {
		name        string
		off         int
		holds, most int
	}{
		{"profile", profile0, e.ds.Profiles[0].Len(), maxListEntries},
		{"evaluated-memo", memo, evaluated, users},
		{"view", view, n0.view.Size(), cfg.R},
		{"personal-network", pnet, n0.pnet.Len(), cfg.S},
	} {
		if got := int(binary.LittleEndian.Uint32(raw[c.off:])); got != c.holds {
			t.Fatalf("%s count: offset %d holds %d, the engine %d (did the layout change?)", c.name, c.off, got, c.holds)
		}
		cut := bytes.Clone(raw[:c.off+4+12]) // the count and a bit of what it counts
		binary.LittleEndian.PutUint32(cut[c.off:], uint32(c.most))
		out = append(out, hostileCount{c.name, cut})
	}
	return out, cfg
}

// TestRestoreHostileCountsStayBounded: a count is a claim until the data
// behind it has arrived, so sizing anything from one must not let a short
// file buy memory. 1 MB is far above what restoring the 40-user prefix takes
// and far below what any of these counts would reserve if it were trusted.
func TestRestoreHostileCountsStayBounded(t *testing.T) {
	cases, cfg := hostileCounts(t)
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Restore(bytes.NewReader(c.raw), nil, cfg)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "checkpoint: truncated input") {
			t.Errorf("%s count at its maximum: err = %v, want the checkpoint's truncation error", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s count at its maximum: Restore allocated %d KB on a %d-byte input", c.name, got>>10, len(c.raw))
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	_, cfg := smallSnapshot(t)
	if _, err := Restore(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), nil, cfg); err == nil {
		t.Fatal("Restore accepted garbage input")
	}
	if _, err := Restore(bytes.NewReader(nil), nil, cfg); err == nil {
		t.Fatal("Restore accepted empty input")
	}
}

func TestRestoreRejectsTruncated(t *testing.T) {
	raw, cfg := smallSnapshot(t)
	for _, cut := range []int{len(raw) / 2, len(raw) - 1, 7} {
		if _, err := Restore(bytes.NewReader(raw[:cut]), nil, cfg); err == nil {
			t.Fatalf("Restore accepted a snapshot truncated to %d of %d bytes", cut, len(raw))
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d bytes surfaced as %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestRestoreRejectsVersionSkew(t *testing.T) {
	raw, cfg := smallSnapshot(t)
	skewed := append([]byte(nil), raw...)
	skewed[4] ^= 0xFF // the version field sits behind the 4-byte magic
	_, err := Restore(bytes.NewReader(skewed), nil, cfg)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-skewed snapshot surfaced as %v, want a version error", err)
	}
}

func TestRestoreRejectsConfigMismatch(t *testing.T) {
	raw, cfg := smallSnapshot(t)
	bad := cfg
	bad.S = cfg.S + 1
	if _, err := Restore(bytes.NewReader(raw), nil, bad); err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("restore with a different S surfaced as %v, want a config mismatch", err)
	}
	bad = cfg
	bad.Seed = cfg.Seed + 99
	if _, err := Restore(bytes.NewReader(raw), nil, bad); err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("restore with a different Seed surfaced as %v, want a config mismatch", err)
	}
}

func TestRestoreRejectsCAssignMismatch(t *testing.T) {
	// Heterogeneous storage capacities are config too: restoring under a
	// different CAssign draw must fail the config-match contract, not
	// silently keep the snapshot's capacities.
	cfg := smallCfg()
	cfg.Workers = 1
	w := newWorld(t, 40, cfg, 11)
	cfg.CAssign = make([]int, 40)
	for i := range cfg.CAssign {
		cfg.CAssign[i] = 3 + i%5
	}
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Restore(bytes.NewReader(raw), nil, cfg); err != nil {
		t.Fatalf("restore under the snapshotting CAssign failed: %v", err)
	}
	bad := cfg
	bad.CAssign = make([]int, 40)
	for i := range bad.CAssign {
		bad.CAssign[i] = 2 + i%7 // a different draw
	}
	if _, err := Restore(bytes.NewReader(raw), nil, bad); err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("restore under a different CAssign surfaced as %v, want a config mismatch", err)
	}
	short := cfg
	short.CAssign = cfg.CAssign[:10]
	if _, err := Restore(bytes.NewReader(raw), nil, short); err == nil {
		t.Fatal("restore accepted a CAssign of the wrong length")
	}
}

func TestRestoreRejectsForeignDataset(t *testing.T) {
	raw, cfg := smallSnapshot(t)
	other := newWorld(t, 40, cfg, 99) // same size, different content
	if _, err := Restore(bytes.NewReader(raw), other.ds, cfg); err == nil {
		t.Fatal("Restore accepted a dataset that is not the checkpoint's base")
	}
}

func TestRestoreRejectsAheadDataset(t *testing.T) {
	// A dataset that already advanced past the snapshot (changes applied
	// after the checkpoint was written) cannot be rolled back.
	cfg := smallCfg()
	cfg.Workers = 1
	w := newWorld(t, 40, cfg, 11)
	e := New(w.ds, cfg)
	e.SeedIdealNetworks(w.ideal)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	trace.ApplyChanges(w.ds, trace.GenerateChanges(w.ds, trace.ChangeParams{
		FracUsers: 0.5, MeanNew: 3, SigmaNew: 0.5, MaxNew: 10, Seed: 4,
	}))
	if _, err := Restore(&buf, w.ds, cfg); err == nil {
		t.Fatal("Restore accepted a dataset ahead of the checkpoint")
	}
}

// TestFuzzSeedCorpusRestores keeps the on-disk seed corpus of FuzzRestore
// honest: every testdata/fuzz/FuzzRestore entry must parse as a
// `go test fuzz v1` []byte literal, the valid snapshot of the current
// format version (seedName) must restore successfully, and the valid
// snapshots of older versions must be refused as a version mismatch. When
// the format (or the checkpoint.Version constant) changes, this fails and
// signals that the seed needs regenerating from smallSnapshot.
func TestFuzzSeedCorpusRestores(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRestore")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("seed corpus directory is empty")
	}
	_, cfg := smallSnapshot(t)
	restored := 0
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSuffix(string(raw), "\n"), "\n", 2)
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go test fuzz v1 corpus file", ent.Name())
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: corpus []byte literal does not unquote: %v", ent.Name(), err)
		}
		e, err := Restore(bytes.NewReader([]byte(data)), nil, cfg)
		switch {
		case ent.Name() != seedName && strings.HasPrefix(ent.Name(), "valid-v"):
			if err == nil || !strings.Contains(err.Error(), "unsupported format version") {
				t.Fatalf("%s: an old version's snapshot surfaced as %v, want a version mismatch", ent.Name(), err)
			}
			continue
		case err != nil:
			t.Fatalf("%s: seed no longer restores at the current version: %v", ent.Name(), err)
		}
		e.LazyCycle()
		restored++
	}
	if restored == 0 {
		t.Fatalf("no corpus entry restored (regenerate %s with -update-golden)", seedName)
	}
}

// FuzzRestore hardens the checkpoint parser the way FuzzLoad hardens the
// trace parser: arbitrary input must never panic or hang, and anything
// accepted must yield an engine that survives running real cycles.
func FuzzRestore(f *testing.F) {
	raw, cfg := smallSnapshot(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:16])
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	hostile, _ := hostileCounts(f)
	f.Add(hostile[0].raw) // a profile claiming 2^26 actions
	f.Add(hostile[3].raw) // a personal network claiming S neighbours

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Restore(bytes.NewReader(data), nil, cfg)
		if err != nil {
			return // rejecting malformed input is correct
		}
		// Accepted input must be internally coherent: cycles of both modes
		// must run and the state must re-snapshot.
		_ = e.Stats()
		e.LazyCycle()
		e.EagerCycle()
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatalf("re-snapshotting an accepted restore failed: %v", err)
		}
	})
}

// TestEvaluatedExportSorted: the checkpoint writes the evaluated memo in
// ascending owner order, whatever the table's slot order, and leaves the
// bitmap clear for the next node.
func TestEvaluatedExportSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var o memoOrder
	for trial := 0; trial < 50; trial++ {
		var m idtab.Table
		model := map[tagging.UserID]int32{}
		for i, sets := 0, rng.Intn(1200); i < sets; i++ {
			owner, v := tagging.UserID(rng.Intn(600)), int32(rng.Intn(1000))
			m.Put(uint32(owner), v)
			model[owner] = v
		}
		out := o.appendSorted([]evalSlot{{owner: 9999}}, &m)[1:]
		if len(out) != len(model) {
			t.Fatalf("export holds %d entries, model %d", len(out), len(model))
		}
		if !slices.IsSortedFunc(out, func(a, b evalSlot) int { return cmp.Compare(a.owner, b.owner) }) {
			t.Fatalf("export not in ascending owner order: %v", out)
		}
		for _, s := range out {
			if v, ok := model[s.owner]; !ok || v != s.version {
				t.Fatalf("export entry (owner %d, version %d) not in the model", s.owner, s.version)
			}
		}
		if i := slices.IndexFunc(o.present, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("bitmap word %d left set", i)
		}
	}
}
