package core

import (
	"p3q/internal/gossip"
	"p3q/internal/idtab"
	"p3q/internal/randx"
	"p3q/internal/sim"
	"p3q/internal/tagging"
)

// The planning phases split their working memory in two, by who reads it:
//
//   - what only the planner touches lives in one planWorker per plan
//     goroutine and is meaningless between plan calls;
//   - what the commit phase (and the capture readers) read — integration
//     results, view send buffers, random-view contacts, plan ledgers — is
//     carved out of the planning worker's arenas, which are reset at the
//     start of every cycle.
//
// Plan slots then hold only headers into the arenas, so the memory kept
// between cycles follows the largest single cycle, not every slot's
// largest cycle.

// arenaChunk is the element count of an arena chunk (a run needing more
// gets a chunk of its own size).
const arenaChunk = 1024

// arena is a bump region for one kind of plan output, made of chunks that
// are kept, not freed, across cycles. A plan builds its output as a run:
// open reserves room at the tail of a chunk, the plan appends, and close
// keeps what was appended. One run is open per arena at a time, and a run
// grows only by append, never past what open reserved (close panics on a
// run that did) — so it always lies inside one chunk, and a cycle that
// needs a little more than any cycle before takes one new chunk instead of
// a doubled copy.
type arena[T any] struct {
	chunks [][]T // each chunk's length is its used prefix
	cur    int   // the chunk runs are opened in
}

// reset frees every run of the previous cycle, keeping the chunks. The
// used elements are zeroed so that stale pointers keep no digest or
// profile alive.
func (a *arena[T]) reset() {
	for i := range a.chunks {
		clear(a.chunks[i])
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}

// open returns an empty run with room for n elements, at the tail of the
// current chunk or, when that is too short, of the next chunk that fits.
//
//p3q:hotpath
func (a *arena[T]) open(n int) []T {
	for ; a.cur < len(a.chunks); a.cur++ {
		c := a.chunks[a.cur]
		if cap(c)-len(c) >= n {
			return c[len(c):len(c)]
		}
	}
	a.grow(n)
	return a.chunks[a.cur]
}

// grow appends a chunk with room for n elements. Deliberately not a hot
// path: it runs only in a cycle larger than any before.
func (a *arena[T]) grow(n int) {
	a.chunks = append(a.chunks, make([]T, 0, max(n, arenaChunk)))
}

// close keeps the run last returned by open, as appended to since.
//
//p3q:hotpath
func (a *arena[T]) close(run []T) {
	c := a.chunks[a.cur]
	a.chunks[a.cur] = c[:len(c)+len(run)]
}

// planWorker is the memory of one plan goroutine: forEachIndex hands every
// call its worker's index, and the plan functions take the worker as a
// parameter.
type planWorker struct {
	// capture is set for a captured cycle (see capture.go): the planners
	// then also keep what only the capture reads.
	capture bool

	// Planner-only scratch, valid within one plan call.
	seen      idtab.Table        // lazy top plan: versions this plan already scored, over the evaluated memo
	partners  []uint32           // selectTopPartner: shuffled (last, ID) ranks, then the current age group
	common    []tagging.ItemID   // step 2: the common items of one offer
	offers    []offer            // advertise: one advertised batch
	storedBuf []*Entry           // advertise: the stored entries to sample from
	smp       randx.Sampler      // advertise and send-buffer sampling
	found     []tagging.Snapshot // eager: resolved snapshots for the partial list
	inPnet    []*Entry           // eager destination selection: branch ∩ personal network
	cand      []tagging.UserID   // eager destination selection: candidate order

	// Per-cycle outputs, read by the commit and the capture.
	records  arena[sim.Record]        // plan ledgers
	results  arena[intResult]         // integration results
	descs    arena[gossip.Descriptor] // view send buffers
	contacts arena[rvContact]         // random-view contacts
	resets   arena[tagging.UserID]    // departed partners probed
}

// reset frees the outputs of the previous cycle.
func (w *planWorker) reset() {
	w.records.reset()
	w.results.reset()
	w.descs.reset()
	w.contacts.reset()
	w.resets.reset()
}

// planWorkers returns one planWorker per plan goroutine for a cycle,
// captured or not, its outputs reset: the plans of the previous cycle are
// dead once a new cycle starts.
func (e *Engine) planWorkers(capture bool) []planWorker {
	if len(e.scratch.workers) < e.cfg.Workers {
		e.scratch.workers = make([]planWorker, e.cfg.Workers)
	}
	for i := range e.scratch.workers {
		e.scratch.workers[i].reset()
		e.scratch.workers[i].capture = capture
	}
	return e.scratch.workers
}

// captureRefs returns an advertised batch's wire references when the cycle
// is captured, nil otherwise.
//
//p3q:phase plan
func (w *planWorker) captureRefs(offers []offer) []tagging.DigestRef {
	if !w.capture {
		return nil
	}
	return digestRefs(offers)
}
