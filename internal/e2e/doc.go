// Package e2e hosts the daemon test tiers: the in-process smoke tier
// (daemons over an in-memory transport, always on in `go test ./...`),
// the cross-check tier (an N-daemon cluster replayed against the
// deterministic engine, asserting identical recall and identical
// per-query traffic bytes), and the process tier (real p3qd binaries on
// loopback TCP, gated behind the e2e build tag — see process_e2e_test.go
// and `make e2e`).
package e2e
