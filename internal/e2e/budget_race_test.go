//go:build race

package e2e

import "time"

// Wall-clock budgets of the smoke and soak tiers under the race detector.
// On a 2-vCPU box the soak takes ~5.2 s alone under -race, and 7.3 s and
// 10.44 s in two full `go test -race ./...` runs, where internal/topk's
// ~45 s race run shared the CPUs; the smoke takes ~0.4 s either way.
// Instrumentation and the sibling packages decide these times, not the
// code under test, so each race budget is about three times the worst
// reading of the tier it bounds (the smoke's is the normal 5 s tripled):
// only a hang-like slowdown fails it.
const (
	smokeBudget = 15 * time.Second
	soakBudget  = 30 * time.Second
)
