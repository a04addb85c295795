//go:build !race

package e2e

import "time"

// Wall-clock budgets of the smoke and soak tiers in a normal build: each
// run takes a fraction of its budget (the smoke ~0.1 s, the soak ~0.8 s on
// a 2-vCPU box), so only a gross slowdown or a hang fails them.
const (
	smokeBudget = 5 * time.Second
	soakBudget  = 10 * time.Second
)
