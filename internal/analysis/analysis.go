// Package analysis implements the closed-form query-processing analysis of
// §2.4 of the paper (Theorems 2.1-2.4): the number of gossip cycles R(α)
// for a querier to obtain the best results her personal network can
// provide, and the bounds on users involved, partial results and gossip
// messages.
//
// The model assumes that every gossiped query finds the same number X of
// requested profiles at each destination; the querier starts with a
// remaining list of length L.
package analysis

import "math"

// RAlpha returns R(α), the number of eager cycles until the remaining list
// is exhausted (Theorem 2.1):
//
//	R(α) = 1 - log_α((1-α)·L/X + α)        for 0.5 <= α < 1
//	R(α) = 1 - log_{1-α}(α·L/X + (1-α))    for 0 < α < 0.5
//	R(α) = L/X                              for α = 0 or α = 1
//
// L and X must be positive; L < X is clamped to one cycle.
func RAlpha(alpha, l, x float64) float64 {
	if l <= 0 {
		return 0
	}
	if x <= 0 {
		return math.Inf(1)
	}
	if l <= x {
		return 1
	}
	switch {
	case alpha <= 0 || alpha >= 1:
		return l / x
	case alpha >= 0.5:
		return 1 - math.Log((1-alpha)*l/x+alpha)/math.Log(alpha)
	default:
		return 1 - math.Log(alpha*l/x+(1-alpha))/math.Log(1-alpha)
	}
}

// OptimalAlpha is the split minimizing R(α) (Theorem 2.2).
const OptimalAlpha = 0.5

// UsersBound returns the Theorem 2.3 upper bound on the number of users
// involved in processing a query completing in r cycles: 2^r.
func UsersBound(r float64) float64 { return math.Pow(2, r) }

// PartialResultsBound returns the Theorem 2.3 upper bound on the number of
// partial result lists sent to the querier: 2^r - 1.
func PartialResultsBound(r float64) float64 { return math.Pow(2, r) - 1 }

// MessagesBound returns the Theorem 2.4 upper bound on the number of eager
// gossip messages transmitting remaining lists: 2·(2^r - 1).
func MessagesBound(r float64) float64 { return 2 * (math.Pow(2, r) - 1) }
