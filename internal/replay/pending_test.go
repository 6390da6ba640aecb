package replay

import (
	"testing"
	"time"
)

// The pending table is tested with the stamps passed in: no clock, no
// sleeps, and latency asserted with exact equality.

func query(id uint16) []byte { return []byte{byte(id >> 8), byte(id), 0x01, 0x00} }

func at(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }

func newTestTable() (*pendTable, *pendCounts) {
	c := &pendCounts{}
	t := &pendTable{}
	t.init(c)
	return t, c
}

func wantCounts(t *testing.T, c *pendCounts, inFlight, unanswered int64) {
	t.Helper()
	if got := c.inFlight.Load(); got != inFlight {
		t.Errorf("in flight = %d, want %d", got, inFlight)
	}
	if got := c.unanswered.Load(); got != unanswered {
		t.Errorf("unanswered = %d, want %d", got, unanswered)
	}
}

func wantSettle(t *testing.T, tab *pendTable, id uint16, now time.Time, outcome pendOutcome, latency time.Duration) {
	t.Helper()
	if o, l := tab.settle(id, now); o != outcome || l != latency {
		t.Errorf("settle(%d) = outcome %d after %v, want outcome %d after %v", id, o, l, outcome, latency)
	}
}

// TestPendTableSettle: two queries in flight at once each get their own
// latency from their own send, in whatever order the answers come; a
// second answer is a duplicate until the ID is sent again; an ID never
// sent is a stray.
func TestPendTableSettle(t *testing.T) {
	tab, c := newTestTable()
	if seq := tab.send(at(0), query(7), query(8)); seq != 1 {
		t.Errorf("first seq = %d, want 1", seq)
	}
	if seq := tab.send(at(3), query(9)); seq != 3 {
		t.Errorf("third query's seq = %d, want 3", seq)
	}
	wantCounts(t, c, 3, 0)

	wantSettle(t, tab, 8, at(5), pendFresh, 5*time.Millisecond)
	wantSettle(t, tab, 9, at(5), pendFresh, 2*time.Millisecond)
	wantSettle(t, tab, 7, at(55), pendFresh, 55*time.Millisecond)
	wantCounts(t, c, 0, 0)

	wantSettle(t, tab, 7, at(56), pendDuplicate, 0)
	wantSettle(t, tab, 1234, at(56), pendStray, 0)

	// ID 7 goes out again: its answered mark is gone, and the next answer
	// under it is fresh and timed from the new send.
	tab.send(at(60), query(7))
	wantSettle(t, tab, 7, at(61), pendFresh, time.Millisecond)
	wantSettle(t, tab, 7, at(62), pendDuplicate, 0)
	wantCounts(t, c, 0, 0)
}

// TestPendTableSuperseded: a query sent under an ID still in flight takes
// the slot over. The older query ends unanswered, its retry deadline goes
// stale, and the one answer that comes is the newer query's.
func TestPendTableSuperseded(t *testing.T) {
	tab, c := newTestTable()
	old := tab.send(at(0), query(5))
	tab.send(at(10), query(5))
	wantCounts(t, c, 1, 1)
	if _, _, live := tab.retry(5, old, 3); live {
		t.Error("the superseded query's retry deadline is still live")
	}
	if tab.unsend(5, old) {
		t.Error("the superseded query could still be taken back")
	}
	wantSettle(t, tab, 5, at(12), pendFresh, 2*time.Millisecond)
	wantSettle(t, tab, 5, at(13), pendDuplicate, 0)
	wantCounts(t, c, 0, 1)
}

// TestPendTableRetryKeepsFirstSend: retransmissions hand back the wire
// and count attempts, but latency stays measured from the first send; once
// the budget is spent the query is given up and a late answer is a stray.
func TestPendTableRetryKeepsFirstSend(t *testing.T) {
	tab, c := newTestTable()
	msg := query(3)
	seq := tab.send(at(0), msg)
	for want := int32(1); want <= 2; want++ {
		wire, attempt, live := tab.retry(3, seq, 2)
		if !live || attempt != want || &wire[0] != &msg[0] {
			t.Fatalf("retry %d = (%v, attempt %d, live %v), want the sent wire back", want, wire, attempt, live)
		}
	}
	wantSettle(t, tab, 3, at(700), pendFresh, 700*time.Millisecond)

	seq = tab.send(at(1000), msg)
	tab.retry(3, seq, 1)
	if wire, attempt, live := tab.retry(3, seq, 1); !live || attempt != 2 || wire != nil {
		t.Fatalf("retry past the budget = (%v, attempt %d, live %v), want a give-up", wire, attempt, live)
	}
	wantCounts(t, c, 0, 0)
	if _, _, live := tab.retry(3, seq, 1); live {
		t.Error("a given-up query's deadline fired live again")
	}
	wantSettle(t, tab, 3, at(2000), pendStray, 0)
}

// TestPendTableUnsendAndClose: a refused send comes back out without a
// trace; closing moves what is in flight to unanswered and strands the
// deadlines.
func TestPendTableUnsendAndClose(t *testing.T) {
	tab, c := newTestTable()
	seq := tab.send(at(0), query(1), query(2), query(3))
	if !tab.unsend(2, seq+1) {
		t.Fatal("unsend of a query in flight failed")
	}
	wantCounts(t, c, 2, 0)
	wantSettle(t, tab, 2, at(1), pendStray, 0)
	wantSettle(t, tab, 1, at(1), pendFresh, time.Millisecond)

	tab.close()
	wantCounts(t, c, 0, 1)
	if _, _, live := tab.retry(3, seq+2, 3); live {
		t.Error("retry deadline live after close")
	}
	wantSettle(t, tab, 3, at(2), pendStray, 0)
}

// TestPendTableBoundedByIDSpace: a source that is never answered cannot
// grow its table past one slot per DNS ID; every query beyond that
// supersedes one, which is counted out as unanswered then and there.
func TestPendTableBoundedByIDSpace(t *testing.T) {
	tab, c := newTestTable()
	const sent = 1<<16 + 5000
	for i := 0; i < sent; i++ {
		tab.send(at(0), query(uint16(i)))
	}
	if len(tab.slots) != 1<<16 {
		t.Errorf("table holds %d slots, want the ID space's %d", len(tab.slots), 1<<16)
	}
	wantCounts(t, c, 1<<16, 5000)
	tab.close()
	wantCounts(t, c, 0, sent)
}

// TestSettleResponseAllocs guards the receive path: settling a fresh
// response — table, counters, latency histogram and an installed
// OnResponse, which borrows the receive buffer — allocates nothing.
func TestSettleResponseAllocs(t *testing.T) {
	seen := 0
	en, err := New(Config{UDPTarget: "127.0.0.1:53", OnResponse: func(msg []byte, _ time.Time) { seen += len(msg) }})
	if err != nil {
		t.Fatal(err)
	}
	q := newQuerier(en, "alloc-test")
	tab := &pendTable{}
	tab.init(&en.pend)
	msg, now := query(42), at(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tab.send(now, msg)
		q.settleResponse(tab, msg, now)
	})
	if allocs != 0 {
		t.Errorf("send+settle allocates %.1f per query, want 0", allocs)
	}
	if en.responses.Load() == 0 || seen == 0 {
		t.Error("the measured path settled no fresh response")
	}
}

// FuzzPendTable drives a table and a trivially-correct model of it with
// the same random sequence of sends, answers, retry deadlines, take-backs
// and closes. Every outcome must agree, and after every step each query
// ever sent is in exactly one place: in flight, answered, given up, taken
// back or unanswered.
func FuzzPendTable(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x00, 0x10, 0x08, 0x20, 0x20, 0x20, 0x01, 0x18, 0x30})
	f.Add([]byte{0x01, 0x01, 0x11, 0x09, 0x38, 0x02, 0x2a, 0x22, 0x22, 0x12, 0x12})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const budget = 2
		type sent struct {
			seq     uint32
			first   time.Time
			attempt int32
		}
		tab, c := newTestTable()
		live := map[uint16]sent{}
		answered := map[uint16]bool{}
		var seq uint32
		var nSent, nFresh, nGaveUp, nUnsent, nUnanswered int64
		for step, op := range ops {
			id, now := uint16(op&7), at(step)
			switch op >> 3 & 7 {
			case 0, 1: // send
				if _, ok := live[id]; ok {
					nUnanswered++
				}
				seq++
				nSent++
				live[id] = sent{seq: seq, first: now}
				delete(answered, id)
				if got := tab.send(now, query(id)); got != seq {
					t.Fatalf("step %d: send seq %d, model %d", step, got, seq)
				}
			case 2, 3: // a response arrives
				want, wantLat := pendStray, time.Duration(0)
				if s, ok := live[id]; ok {
					want, wantLat = pendFresh, now.Sub(s.first)
					delete(live, id)
					answered[id] = true
					nFresh++
				} else if answered[id] {
					want = pendDuplicate
				}
				if got, lat := tab.settle(id, now); got != want || lat != wantLat {
					t.Fatalf("step %d: settle(%d) = %d after %v, model %d after %v", step, id, got, lat, want, wantLat)
				}
			case 4, 5: // a retry deadline fires, for the live query or a stale one
				s, ok := live[id]
				armed := s.seq
				if op>>3&7 == 5 {
					armed, ok = s.seq+1, false
				}
				wire, attempt, isLive := tab.retry(id, armed, budget)
				if isLive != ok {
					t.Fatalf("step %d: retry(%d, %d) live = %v, model %v", step, id, armed, isLive, ok)
				}
				if !ok {
					continue
				}
				s.attempt++
				if attempt != s.attempt || (wire == nil) != (s.attempt > budget) {
					t.Fatalf("step %d: retry(%d) = attempt %d, wire %v; model attempt %d of %d", step, id, attempt, wire, s.attempt, budget)
				}
				if live[id] = s; s.attempt > budget {
					delete(live, id)
					nGaveUp++
				}
			case 6: // the kernel refused the send
				s, ok := live[id]
				if got := tab.unsend(id, s.seq); got != ok {
					t.Fatalf("step %d: unsend(%d) = %v, model %v", step, id, got, ok)
				}
				if ok {
					delete(live, id)
					nUnsent++
				}
			case 7: // the socket closes
				nUnanswered += int64(len(live))
				clear(live)
				tab.close()
			}
			if got := c.inFlight.Load(); got != int64(len(live)) || len(tab.slots) != len(live) {
				t.Fatalf("step %d: in flight %d in %d slots, model %d", step, got, len(tab.slots), len(live))
			}
			if got := c.unanswered.Load(); got != nUnanswered {
				t.Fatalf("step %d: unanswered %d, model %d", step, got, nUnanswered)
			}
			if nSent != nFresh+nGaveUp+nUnsent+c.unanswered.Load()+c.inFlight.Load() {
				t.Fatalf("step %d: %d sent != %d answered + %d given up + %d taken back + %d unanswered + %d in flight",
					step, nSent, nFresh, nGaveUp, nUnsent, c.unanswered.Load(), c.inFlight.Load())
			}
		}
	})
}
