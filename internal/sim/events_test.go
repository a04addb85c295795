package sim

import (
	"testing"
	"time"

	"p3q/internal/randx"
)

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	q.Schedule(30*time.Millisecond, "c")
	q.Schedule(10*time.Millisecond, "a")
	q.Schedule(20*time.Millisecond, "b1")
	q.Schedule(20*time.Millisecond, "b2") // same time: scheduling order
	q.Schedule(5*time.Millisecond, "first")

	want := []string{"first", "a", "b1", "b2", "c"}
	for i, w := range want {
		ev, ok := q.PopUntil(time.Second)
		if !ok {
			t.Fatalf("pop %d: queue empty, want %q", i, w)
		}
		if ev.Payload.(string) != w {
			t.Fatalf("pop %d = %q, want %q", i, ev.Payload, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

func TestEventQueuePopUntilBoundary(t *testing.T) {
	q := NewEventQueue()
	q.Schedule(10*time.Millisecond, "due")
	q.Schedule(11*time.Millisecond, "later")

	if ev, ok := q.PopUntil(10 * time.Millisecond); !ok || ev.Payload.(string) != "due" {
		t.Fatalf("event due exactly at the horizon must pop (got ok=%v)", ok)
	}
	if _, ok := q.PopUntil(10 * time.Millisecond); ok {
		t.Fatal("event beyond the horizon popped")
	}
	if at, ok := q.NextAt(); !ok || at != 11*time.Millisecond {
		t.Fatalf("NextAt = %v/%v, want 11ms/true", at, ok)
	}
}

func TestEventQueueInterleavedSchedulePop(t *testing.T) {
	// Heap property must survive interleaving: schedule, pop some, schedule
	// earlier events, pop the rest in global (At, Seq) order.
	q := NewEventQueue()
	q.Schedule(40*time.Millisecond, 40)
	q.Schedule(20*time.Millisecond, 20)
	if ev, _ := q.PopUntil(time.Second); ev.Payload.(int) != 20 {
		t.Fatalf("got %v, want 20", ev.Payload)
	}
	q.Schedule(10*time.Millisecond, 10)
	q.Schedule(30*time.Millisecond, 30)
	var got []int
	for {
		ev, ok := q.PopUntil(time.Second)
		if !ok {
			break
		}
		got = append(got, ev.Payload.(int))
	}
	want := []int{10, 30, 40}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestLatencyModelsDeterministicAndBounded(t *testing.T) {
	models := []struct {
		name string
		m    LatencyModel
	}{
		{"fixed", FixedLatency(50 * time.Millisecond)},
		{"uniform", UniformLatency{Min: 10 * time.Millisecond, Max: 200 * time.Millisecond}},
		{"lognormal", LogNormalLatency{Median: 50 * time.Millisecond, Sigma: 0.8}},
		{"geo", GeoLatency{RTT: [][]time.Duration{
			{20 * time.Millisecond, 120 * time.Millisecond},
			{120 * time.Millisecond, 20 * time.Millisecond},
		}, Jitter: 0.3}},
	}
	for _, tc := range models {
		for i := 0; i < 200; i++ {
			rng1 := randx.NewSource(uint64(i) + 1)
			rng2 := randx.NewSource(uint64(i) + 1)
			d1 := tc.m.Delay(NodeID(i%7), NodeID(i%11), MsgQueryForward, rng1)
			d2 := tc.m.Delay(NodeID(i%7), NodeID(i%11), MsgQueryForward, rng2)
			if d1 != d2 {
				t.Fatalf("%s: identical streams drew %v vs %v", tc.name, d1, d2)
			}
			if d1 < 0 {
				t.Fatalf("%s: negative delay %v", tc.name, d1)
			}
		}
	}
}

func TestUniformLatencyRange(t *testing.T) {
	m := UniformLatency{Min: 10 * time.Millisecond, Max: 20 * time.Millisecond}
	rng := randx.NewSource(7)
	for i := 0; i < 1000; i++ {
		d := m.Delay(0, 1, MsgQueryForward, rng)
		if d < m.Min || d > m.Max {
			t.Fatalf("uniform draw %v outside [%v, %v]", d, m.Min, m.Max)
		}
	}
}

func TestGeoLatencyZones(t *testing.T) {
	m := GeoLatency{
		Zones: []int{0, 1},
		RTT: [][]time.Duration{
			{5 * time.Millisecond, 100 * time.Millisecond},
			{100 * time.Millisecond, 5 * time.Millisecond},
		},
	}
	rng := randx.NewSource(1)
	if d := m.Delay(0, 1, MsgQueryForward, rng); d != 100*time.Millisecond {
		t.Fatalf("cross-zone delay %v, want 100ms", d)
	}
	if d := m.Delay(0, 0, MsgQueryForward, rng); d != 5*time.Millisecond {
		t.Fatalf("intra-zone delay %v, want 5ms", d)
	}
	// Node 5 is beyond Zones: falls back to id % len(RTT) = zone 1.
	if d := m.Delay(5, 1, MsgQueryForward, rng); d != 5*time.Millisecond {
		t.Fatalf("fallback-zone delay %v, want 5ms", d)
	}
}

func TestParseLatency(t *testing.T) {
	for _, spec := range []string{"", "none", "sync"} {
		m, err := ParseLatency(spec)
		if err != nil || m != nil {
			t.Fatalf("ParseLatency(%q) = %v, %v; want nil, nil", spec, m, err)
		}
	}
	if m, err := ParseLatency("fixed:50ms"); err != nil || m.(FixedLatency) != FixedLatency(50*time.Millisecond) {
		t.Fatalf("fixed spec parsed to %v, %v", m, err)
	}
	if m, err := ParseLatency("uniform:10ms,200ms"); err != nil {
		t.Fatalf("uniform spec: %v", err)
	} else if u := m.(UniformLatency); u.Min != 10*time.Millisecond || u.Max != 200*time.Millisecond {
		t.Fatalf("uniform spec parsed to %+v", u)
	}
	if m, err := ParseLatency("lognormal:50ms,0.8"); err != nil {
		t.Fatalf("lognormal spec: %v", err)
	} else if l := m.(LogNormalLatency); l.Median != 50*time.Millisecond || l.Sigma != 0.8 {
		t.Fatalf("lognormal spec parsed to %+v", l)
	}
	if m, err := ParseLatency("geo:3,25ms,120ms"); err != nil {
		t.Fatalf("geo spec: %v", err)
	} else if g := m.(GeoLatency); len(g.RTT) != 3 || g.RTT[0][0] != 25*time.Millisecond || g.RTT[0][2] != 120*time.Millisecond {
		t.Fatalf("geo spec parsed to %+v", g)
	}

	for _, bad := range []string{
		"bogus:1ms", "fixed:", "fixed:xyz", "fixed:-5ms", "uniform:10ms",
		"uniform:200ms,10ms", "lognormal:50ms,-1", "geo:0,1ms,2ms", "geo:2,1ms",
	} {
		if _, err := ParseLatency(bad); err == nil {
			t.Fatalf("ParseLatency(%q) accepted a malformed spec", bad)
		}
	}
}

func TestLedgerRecordsOfflineSendAsProbe(t *testing.T) {
	nw := NewNetwork(2)
	l := nw.NewLedger()
	l.Send(0, 1, MsgQueryForward, 100)
	nw.SetOnline(1, false)
	l.Send(0, 1, MsgQueryForward, 100) // degrades into a probe
	recs := l.Records()
	if len(recs) != 2 {
		t.Fatalf("recorded %d messages, want 2", len(recs))
	}
	if r := recs[1]; r.Kind != MsgProbe || r.Bytes != ProbeBytes {
		t.Fatalf("send to an offline node recorded as %v, %d bytes; want a probe", r.Kind, r.Bytes)
	}
	nw.Commit(l)
	if nw.Total().TotalMsgs() != 2 {
		t.Fatalf("commit folded %d msgs, want 2", nw.Total().TotalMsgs())
	}
}
