package authserver

import (
	"testing"
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/qlog"
)

func qlogEngine(t *testing.T) (*Engine, *qlog.Pipeline) {
	t.Helper()
	e := hierarchyEngine(t)
	p := qlog.New(qlog.Config{Sinks: []qlog.Sink{qlog.NewDiscardSink()}})
	p.Start()
	e.SetQlog(p)
	t.Cleanup(func() { p.Close() })
	return e, p
}

// TestRespondCachedAllocsQlog pins the cache hit with telemetry at its
// usual ≤1 allocation (the caller-owned response copy): the qlog emit is
// field stores into a reserved ring slot, nothing more, and borrowing the
// shard that makes it costs none.
func TestRespondCachedAllocsQlog(t *testing.T) {
	e, p := qlogEngine(t)
	wire, err := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("cached Respond allocs/op with qlog = %.2f, want ≤ 1", allocs)
	}
	if st := p.Stats(); st.Published+st.RingDrops < 1000 {
		t.Fatalf("qlog recorded %d+%d events; emit path not exercised", st.Published, st.RingDrops)
	}
}

// TestQlogStalledPipelineNeverBlocksServing wedges the collector (never
// started) behind a tiny ring and proves the serving path at full tilt
// neither blocks nor loses accounting: every query is answered, every
// event is either published or counted shed, and the whole burst clears
// in datapath time, not collector time.
func TestQlogStalledPipelineNeverBlocksServing(t *testing.T) {
	const queries = 5000
	e := hierarchyEngine(t)
	p := qlog.New(qlog.Config{RingSize: 64, Sinks: []qlog.Sink{qlog.NewDiscardSink()}})
	// Deliberately not started: the worst stall a sink can cause.
	e.SetQlog(p)
	sh := e.NewShard()
	wire, err := dnswire.NewQuery(3, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]byte, 0, 4096)
	start := time.Now()
	sh.BeginBatch()
	for i := 0; i < queries; i++ {
		out, err := sh.AppendRespond(slab[:0], wire, exNSAddr, UDP)
		if err != nil || len(out) == 0 {
			t.Fatalf("query %d: err=%v len=%d", i, err, len(out))
		}
	}
	sh.EndBatch()
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Errorf("%d queries with a stalled pipeline took %v; emit blocked", queries, elapsed)
	}
	st := p.Stats()
	if st.Published+st.RingDrops != queries {
		t.Errorf("published %d + shed %d != %d queries", st.Published, st.RingDrops, queries)
	}
	if st.RingDrops == 0 {
		t.Error("64-slot ring with no collector shed nothing; test is vacuous")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSetQlogReachesExistingShards attaches, swaps and detaches the
// pipeline after the engine's shards exist — the one Respond borrows and
// one a serve loop would own — and checks each pipeline's books balance
// against exactly the queries served while it was attached.
func TestSetQlogReachesExistingShards(t *testing.T) {
	e := hierarchyEngine(t)
	wire, err := dnswire.NewQuery(5, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	own := e.NewShard()
	serve := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
				t.Fatal(err)
			}
			own.BeginBatch()
			if _, err := own.AppendRespond(nil, wire, exNSAddr, UDP); err != nil {
				t.Fatal(err)
			}
			own.EndBatch()
		}
	}
	serve(3) // both shards exist and have served before any pipeline does
	first := qlog.New(qlog.Config{Sinks: []qlog.Sink{qlog.NewDiscardSink()}})
	second := qlog.New(qlog.Config{Sinks: []qlog.Sink{qlog.NewDiscardSink()}})
	e.SetQlog(first)
	serve(5)
	e.SetQlog(second)
	serve(7)
	e.SetQlog(nil)
	serve(2)
	for _, c := range []struct {
		name string
		p    *qlog.Pipeline
		want int64
	}{{"first", first, 2 * 5}, {"second", second, 2 * 7}} {
		if st := c.p.Stats(); st.Published+st.RingDrops != c.want {
			t.Errorf("%s pipeline: published %d + shed %d, want %d", c.name, st.Published, st.RingDrops, c.want)
		}
		if err := c.p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Queries != 2*(3+5+7+2) {
		t.Errorf("engine served %d queries, want %d", st.Queries, 2*(3+5+7+2))
	}
}

// TestQlogEventFields spot-checks what the emit path records: identity,
// question, flags, and the events==queries
// invariant across hit, miss, and refused exits.
func TestQlogEventFields(t *testing.T) {
	e := hierarchyEngine(t)
	var got []qlog.Event
	sink := &captureSink{into: &got}
	p := qlog.New(qlog.Config{Sinks: []qlog.Sink{sink}})
	e.SetQlog(p) // never started: Close drains inline, deterministically

	wire, err := dnswire.NewQuery(77, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Respond(wire, exNSAddr, UDP); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := e.Respond(wire, exNSAddr, TCP); err != nil { // TCP: separate cache key
		t.Fatal(err)
	}
	if _, err := e.Respond(wire, exNSAddr, UDP); err != nil { // hit
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("captured %d events, want 3", len(got))
	}
	wantView := e.ViewFor(exNSAddr).Name
	for i, ev := range got {
		if ev.Peer != exNSAddr {
			t.Errorf("event %d: peer %v", i, ev.Peer)
		}
		if ev.ID != 77 || ev.QType != uint16(dnswire.TypeA) || ev.QNameString() != "www.example.com." {
			t.Errorf("event %d: question %d %d %q", i, ev.ID, ev.QType, ev.QNameString())
		}
		if ev.View != wantView {
			t.Errorf("event %d: view %q, want %q", i, ev.View, wantView)
		}
	}
	if got[0].Flags&qlog.FlagCacheHit != 0 {
		t.Error("first query flagged as cache hit")
	}
	if got[1].Transport != uint8(TCP) {
		t.Errorf("second event transport %d, want TCP", got[1].Transport)
	}
	if got[2].Flags&qlog.FlagCacheHit == 0 {
		t.Error("repeat query not flagged as cache hit")
	}
}

// captureSink stores events for assertions.
type captureSink struct {
	into    *[]qlog.Event
	written int64
}

func (s *captureSink) Name() string { return "capture" }
func (s *captureSink) WriteBatch(evs []qlog.Event) {
	*s.into = append(*s.into, evs...)
	s.written += int64(len(evs))
}
func (s *captureSink) Stats() qlog.SinkStats { return qlog.SinkStats{Written: s.written} }
func (s *captureSink) Close() error          { return nil }
