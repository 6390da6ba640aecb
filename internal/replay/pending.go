package replay

import (
	"sync"
	"sync/atomic"
	"time"
)

// pendCounts is the engine-wide tally every pendTable of a run moves. A
// query is added to inFlight when it is filed and leaves exactly once —
// answered, given up, taken back, superseded or closed — so with the
// engine's responses and giveups counters
//
//	Sent == Responses + Giveups + Unanswered   (once inFlight is 0)
//
// holds by construction instead of by subtraction.
type pendCounts struct {
	// inFlight is the number of queries filed and not yet out of a table.
	inFlight atomic.Int64
	// unanswered counts queries that left a table with neither an answer
	// nor a give-up: superseded by a later query under the same ID, or
	// still in flight when their socket or connection closed.
	unanswered atomic.Int64
}

// pendOutcome is what a response turned out to be once settled.
type pendOutcome uint8

const (
	pendFresh     pendOutcome = iota // the first answer to a query in flight
	pendDuplicate                    // its query was answered already
	pendStray                        // no query in flight or answered under its ID
)

// pendSlot is one query in flight.
type pendSlot struct {
	// first is when the query was first handed to the kernel; a
	// retransmission does not re-stamp it, so latency is what the trace's
	// client would have seen.
	first time.Time
	// wire is re-sent on a retry deadline. trace.Entry.Message buffers are
	// immutable after decode, so this is a reference, not a copy.
	wire    []byte
	seq     uint32
	attempt int32
}

// pendTable is the record of the queries in flight on one UDP socket or
// stream connection, keyed by DNS message ID, and the only one: latency,
// duplicate detection and the in-flight count all come from here. slots
// holds a query from its send to its first answer (or give-up), so it is
// as large as the in-flight window, and answered is one bit per ID, so
// the table is bounded by the 16-bit ID space, not by a timer.
type pendTable struct {
	counts *pendCounts

	mu sync.Mutex
	// seq numbers the sends: (id, seq) names one query, so a retry
	// deadline armed for a query since answered, superseded or closed finds
	// another seq, or no slot, and no-ops. Nothing ever searches the wheel.
	seq uint32
	// slots is keyed by the ID widened to 32 bits: the runtime has a fast
	// map path for uint32 keys and none for uint16.
	slots map[uint32]pendSlot
	// answered holds id from the fresh answer under id until id is sent
	// again; it is what makes a second response a duplicate and a response
	// to nothing a stray.
	answered idSet
}

func (t *pendTable) init(counts *pendCounts) {
	t.counts = counts
	t.slots = make(map[uint32]pendSlot)
}

// idSet is a set of DNS IDs, one bit each, in pages of 1024 IDs that come
// into being when an ID in them is first added: 8 KiB for a source that
// goes through the whole ID space, 128 bytes for one with a few queries.
type idSet [64]*[16]uint64

//ldlint:noalloc
func (s *idSet) add(id uint16) {
	pg := s[id>>10]
	if pg == nil {
		pg = new([16]uint64) //ldlint:ignore noalloc one 128-byte page per 1024 IDs a source ever has answered, kept for the life of its socket
		s[id>>10] = pg
	}
	pg[id>>6&15] |= 1 << (id & 63)
}

//ldlint:noalloc
func (s *idSet) remove(id uint16) {
	if pg := s[id>>10]; pg != nil {
		pg[id>>6&15] &^= 1 << (id & 63)
	}
}

//ldlint:noalloc
func (s *idSet) has(id uint16) bool {
	pg := s[id>>10]
	return pg != nil && pg[id>>6&15]&(1<<(id&63)) != 0
}

// msgID is the DNS message ID msg carries. A query too short to carry one
// files under ID 0, so that it is still counted into and out of the table.
//
//ldlint:noalloc
func msgID(msg []byte) uint16 {
	if len(msg) < 2 {
		return 0
	}
	return uint16(msg[0])<<8 | uint16(msg[1])
}

// send files msgs — one socket's share of a batch, or one stream query —
// as handed to the kernel at `at`, under one lock acquisition. They take
// consecutive seqs starting at the one returned. A query whose ID is
// still in flight supersedes the older query, which no response could be
// told apart from the newer one's and so ends unanswered.
//
//ldlint:noalloc
func (t *pendTable) send(at time.Time, msgs ...[]byte) (first uint32) {
	t.mu.Lock()
	first = t.seq + 1
	before := len(t.slots)
	for _, msg := range msgs {
		id := msgID(msg)
		t.seq++
		t.slots[uint32(id)] = pendSlot{first: at, wire: msg, seq: t.seq}
		t.answered.remove(id)
	}
	// A send that did not grow the table took over a slot in flight.
	filed := int64(len(t.slots) - before)
	t.counts.inFlight.Add(filed)
	t.counts.unanswered.Add(int64(len(msgs)) - filed)
	t.mu.Unlock()
	return first
}

// settle matches a response that arrived at now against the table and
// says what it was; a fresh one comes with its query's exact latency,
// now − first send.
//
//ldlint:noalloc
func (t *pendTable) settle(id uint16, now time.Time) (pendOutcome, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, live := t.slots[uint32(id)]; live {
		delete(t.slots, uint32(id))
		//ldlint:ignore escapecheck amortized idSet page inlined from add: one 128-byte page per 1024 IDs, kept for the life of the socket
		t.answered.add(id)
		t.counts.inFlight.Add(-1)
		return pendFresh, now.Sub(s.first)
	}
	if t.answered.has(id) {
		return pendDuplicate, 0
	}
	return pendStray, 0
}

// retry is the retry deadline of the query sent as (id, seq) firing. Not
// live means the query is no longer in flight and there is nothing to do.
// Otherwise attempt says which retransmission this is: up to budget, wire
// is to be re-sent; past it, the query has been given up and is out of
// the table, so an answer that still comes is a stray.
//
//ldlint:noalloc
func (t *pendTable) retry(id uint16, seq uint32, budget int32) (wire []byte, attempt int32, live bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.slots[uint32(id)]
	if !ok || s.seq != seq {
		return nil, 0, false
	}
	s.attempt++
	if s.attempt > budget {
		delete(t.slots, uint32(id))
		t.counts.inFlight.Add(-1)
		return nil, s.attempt, true
	}
	t.slots[uint32(id)] = s
	return s.wire, s.attempt, true
}

// unsend takes the query sent as (id, seq) back out because the kernel
// refused it. False means it had left the table some other way already
// (superseded within its own batch, say) and was accounted for there.
func (t *pendTable) unsend(id uint16, seq uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.slots[uint32(id)]; !ok || s.seq != seq {
		return false
	}
	delete(t.slots, uint32(id))
	t.counts.inFlight.Add(-1)
	return true
}

// close empties the table as its socket or connection goes away: what was
// still in flight ends unanswered, and armed retry deadlines go stale.
func (t *pendTable) close() {
	t.mu.Lock()
	n := int64(len(t.slots))
	clear(t.slots)
	t.counts.inFlight.Add(-n)
	t.counts.unanswered.Add(n)
	t.mu.Unlock()
}
