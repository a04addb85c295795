package core

import "time"

// Clock drives the bimodal protocol in simulated wall-clock time, the way
// the paper's summary (§3.5) reasons about deployment: "Assume 1 minute per
// cycle and 5 seconds per cycle are used in the lazy mode and the eager
// mode respectively, the query can be accurately answered within 50
// seconds". The lazy mode fires every Config.LazyPeriod on every node; the
// eager mode fires every Config.EagerPeriod but only does work while queries
// are active (it is on-demand, §2.2).
//
// The clock is purely simulated: Advance processes due cycles in timestamp
// order (lazy before eager on ties, both periods anchored at time zero) and
// never sleeps.
type Clock struct {
	e *Engine

	now       time.Duration
	nextLazy  time.Duration
	nextEager time.Duration
}

// NewClock returns a clock over the engine, firing at the periods of its
// Config (by default the paper's deployment values, 60s lazy / 5s eager).
func NewClock(e *Engine) *Clock {
	return &Clock{e: e, nextLazy: e.cfg.LazyPeriod, nextEager: e.cfg.EagerPeriod}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves simulated time forward by d, firing every lazy and eager
// cycle that becomes due, in order. Eager cycles fire only while at least
// one query is active; their schedule stays anchored regardless, so a query
// issued mid-stream waits at most one eager period for its first cycle.
func (c *Clock) Advance(d time.Duration) {
	target := c.now + d
	for {
		next := c.nextLazy
		if c.nextEager < next {
			next = c.nextEager
		}
		if next > target {
			break
		}
		c.now = next
		// Lazy first on ties: the low-frequency maintenance tick is the
		// stable background the eager burst rides on.
		if c.nextLazy == next {
			c.e.LazyCycle()
			c.nextLazy += c.e.cfg.LazyPeriod
			continue
		}
		if !c.e.AllQueriesDone() {
			c.e.EagerCycle()
		}
		c.nextEager += c.e.cfg.EagerPeriod
	}
	c.now = target
}

// RunUntilQueriesDone advances until every issued query completes or the
// simulated deadline elapses, and returns the simulated time consumed since
// the call.
func (c *Clock) RunUntilQueriesDone(max time.Duration) time.Duration {
	start := c.now
	for c.now-start < max && !c.e.AllQueriesDone() {
		step := c.e.cfg.EagerPeriod
		if remaining := max - (c.now - start); step > remaining {
			step = remaining
		}
		c.Advance(step)
	}
	return c.now - start
}
