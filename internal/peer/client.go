package peer

import (
	"fmt"

	"p3q/internal/tagging"
	"p3q/internal/wire"
)

// Client is the thin gateway side of the wire protocol: what cmd/p3qctl
// (and the test harnesses) use to talk to any daemon of a cluster. It
// speaks the same frames as the daemons; queries submitted through a
// member are relayed to the lead transparently, and status and stats are
// answered by the dialed daemon itself.
type Client struct {
	rc       *rpcConn
	counters wireCounters
}

// DialClient connects to a daemon.
func DialClient(tr Transport, addr string) (*Client, error) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("peer: dialing %s: %w", addr, err)
	}
	c := &Client{}
	c.rc = newRPCConn(conn, &c.counters)
	return c, nil
}

// Close drops the connection.
func (c *Client) Close() {
	if err := c.rc.Close(); err != nil {
		_ = err // already closed
	}
}

// Submit issues a query cluster-wide and returns its ID.
func (c *Client) Submit(querier tagging.UserID, tags []tagging.TagID) (uint64, error) {
	resp, err := c.rc.Call(&wire.QuerySubmit{Querier: querier, Tags: tags})
	if err != nil {
		return 0, err
	}
	ack, ok := resp.(*wire.QuerySubmitAck)
	if !ok {
		return 0, fmt.Errorf("peer: submit answered with %T", resp)
	}
	if !ack.OK {
		return 0, fmt.Errorf("peer: submit rejected: %s", ack.Reason)
	}
	return ack.Qid, nil
}

// Status fetches a query's progress.
func (c *Client) Status(qid uint64) (*wire.QueryStatusResp, error) {
	resp, err := c.rc.Call(&wire.QueryStatus{Qid: qid})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*wire.QueryStatusResp)
	if !ok {
		return nil, fmt.Errorf("peer: status answered with %T", resp)
	}
	return sr, nil
}

// Stats fetches the daemon's counters.
func (c *Client) Stats() (*wire.StatsResp, error) {
	resp, err := c.rc.Call(&wire.Stats{})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*wire.StatsResp)
	if !ok {
		return nil, fmt.Errorf("peer: stats answered with %T", resp)
	}
	return sr, nil
}

// Shutdown asks the daemon to stop.
func (c *Client) Shutdown() error {
	resp, err := c.rc.Call(&wire.Shutdown{})
	if err != nil {
		return err
	}
	if _, ok := resp.(*wire.ShutdownAck); !ok {
		return fmt.Errorf("peer: shutdown answered with %T", resp)
	}
	return nil
}
