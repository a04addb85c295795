// Package opfixture exercises the obspurity analyzer: host-plane taint
// seeding from internal/hostclock and //p3q:hostplane declarations, taint
// propagation through locals and expressions, the state / control-flow /
// return sinks, the sim-plane mutator ban, and validation of the
// directives themselves.
package opfixture

import (
	"time"

	"p3q/internal/hostclock"
	"p3q/internal/obs"
)

type Engine struct {
	cycleSeq uint64
	ledger   uint64
	obs      *obs.Registry

	// planDur is host-plane storage: writes of wall time land here legally.
	//
	//p3q:hostplane phase timing for observability only
	planDur time.Duration
}

type report struct {
	cycles uint64
	//p3q:hostplane wall time for the progress line
	took time.Duration
}

func (e *Engine) commitTimed() {
	sw := hostclock.Start()
	e.cycleSeq++
	d := sw.Elapsed()
	e.planDur = d             // hostplane field: legal
	e.planDur += sw.Elapsed() // still legal
	e.ledger = uint64(d)      // want "commitTimed writes a host-plane value into field ledger"
	if d > time.Millisecond { // want "commitTimed branches on a host-plane value"
		e.cycleSeq++
	}
	halved := d / 2
	for halved > 0 { // want "commitTimed loops on a host-plane value"
		halved /= 2
	}
	switch d { // want "commitTimed switches on a host-plane value"
	default:
	}
}

func (e *Engine) simPlaneClean() {
	e.obs.Add(obs.CCommitBytes, e.ledger) // engine-state-derived: legal
	e.obs.Inc(obs.CLazyCycles)
	e.obs.SamplePhase(obs.PhasePlan, e.planDur) // host plane of the registry: legal
}

func (e *Engine) simPlaneDirty() {
	sw := hostclock.Start()
	e.obs.Add(obs.CCommitBytes, uint64(sw.Elapsed())) // want "simPlaneDirty feeds a host-plane value into obs.Registry.Add"
	e.obs.AddShardIntent(0, uint64(e.planDur))        // want "simPlaneDirty feeds a host-plane value into obs.Registry.AddShardIntent"
}

func (e *Engine) leakReturn() time.Duration {
	return e.planDur // want "leakReturn returns a host-plane value but is not marked //p3q:hostplane"
}

// timingNote is observability-only end to end, so its branches and return
// are exempt — but even it may not write the sim plane.
//
//p3q:hostplane formats the progress line
func (e *Engine) timingNote() time.Duration {
	if e.planDur > time.Second { // exempt: the function is declared hostplane
		e.obs.Add(obs.CLazyCycles, uint64(e.planDur)) // want "timingNote feeds a host-plane value into obs.Registry.Add"
		e.obs.Inc(obs.CLazyCycles)                    // untainted args stay legal even here
	}
	return e.planDur // exempt
}

// launder returns a clean value: call results of unannotated functions
// are the documented taint boundary, so the caller sees no taint.
func cleanCaller(e *Engine) uint64 {
	_ = e.timingNote() // hostplane func result IS tainted...
	n := e.leakReturn()
	_ = n
	return e.cycleSeq
}

func taintedCaller(e *Engine) {
	d := e.timingNote()
	e.ledger = uint64(d) // want "taintedCaller writes a host-plane value into field ledger"
}

func buildReport(e *Engine) report {
	sw := hostclock.Start()
	return report{
		cycles: uint64(sw.Elapsed()), // want "buildReport binds a host-plane value to field cycles"
		took:   sw.Elapsed(),         // hostplane field: legal
	}
}

//p3q:hostplane
// want-above "stale //p3q:hostplane directive: no struct field or function declaration starts on the line below it"

var notADecl = 0
