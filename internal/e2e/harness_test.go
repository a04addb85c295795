package e2e

import (
	"fmt"
	"testing"

	"p3q/internal/core"
	"p3q/internal/peer"
	"p3q/internal/trace"
)

// Cluster is an in-process daemon cluster over an in-memory transport.
type Cluster struct {
	Fabric  *peer.Fabric
	Addrs   []string
	Daemons []*peer.Daemon
	Gen     trace.GenParams
	Engine  core.Config
}

// Lead returns the cluster's driving daemon.
func (c *Cluster) Lead() *peer.Daemon { return c.Daemons[0] }

// Client dials the daemon at index i.
func (c *Cluster) Client(t testing.TB, i int) *peer.Client {
	t.Helper()
	cl, err := peer.DialClient(c.Fabric, c.Addrs[i])
	if err != nil {
		t.Fatalf("dialing daemon %d: %v", i, err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// StartCluster brings up n daemons hosting users/n nodes each, connected
// in a full mesh, and registers teardown with the test.
func StartCluster(t testing.TB, n, users int, seed uint64) *Cluster {
	t.Helper()
	c := &Cluster{
		Fabric: peer.NewFabric(),
		Gen:    trace.DefaultGenParams(users),
		Engine: core.DefaultConfig(),
	}
	c.Engine.Seed = seed
	for i := 0; i < n; i++ {
		c.Addrs = append(c.Addrs, fmt.Sprintf("daemon-%d", i))
	}
	for i := 0; i < n; i++ {
		d, err := peer.New(peer.Config{
			Index:  i,
			Addrs:  c.Addrs,
			Gen:    c.Gen,
			Engine: c.Engine,
		}, c.Fabric)
		if err != nil {
			t.Fatalf("building daemon %d: %v", i, err)
		}
		if err := d.Start(); err != nil {
			t.Fatalf("starting daemon %d: %v", i, err)
		}
		c.Daemons = append(c.Daemons, d)
		t.Cleanup(d.Close)
	}
	for i, d := range c.Daemons {
		if err := d.Connect(); err != nil {
			t.Fatalf("connecting daemon %d: %v", i, err)
		}
	}
	return c
}

// RequireNoDivergence fails the test if any daemon saw a wire response
// contradict its replica.
func (c *Cluster) RequireNoDivergence(t testing.TB) {
	t.Helper()
	for i, d := range c.Daemons {
		if n := d.Divergence(); n != 0 {
			t.Errorf("daemon %d recorded %d divergences; the wire protocol disagreed with the replica", i, n)
		}
	}
}
