package qlog

import "sync/atomic"

// DefaultRingSize is the per-producer event ring capacity. At ~300 bytes
// per slot a ring is ~2.4 MiB; one ring per engine shard keeps the
// backlog a collector stall can absorb proportional to worker count.
const DefaultRingSize = 8192

// pad separates the hot atomics onto their own cache lines so the
// producer's tail store and the consumer's head store never false-share.
type pad [56]byte

// ring is a bounded single-producer single-consumer queue of Events.
// Slots are stored inline: the producer writes its event directly into
// the slot it reserved, so publishing is the field stores plus one
// release-store of tail. The consumer copies slots out in batches and
// release-stores head; the producer's acquire-load of head is what
// licenses slot reuse. This is the Go-memory-model shape of the classic
// Lamport queue: atomic.Store is a release, atomic.Load an acquire.
type ring struct {
	slots []Event
	mask  uint64

	_     pad
	head  atomic.Uint64 // next slot the consumer will read
	_     pad
	tail  atomic.Uint64 // next slot the producer will write
	_     pad
	drops atomic.Int64 // events shed because the ring was full
}

func newRing(size int) *ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &ring{slots: make([]Event, n), mask: uint64(n - 1)}
}

// drain copies up to len(dst) pending events out of the ring, returning
// how many it took. Consumer side only (the collector goroutine).
func (r *ring) drain(dst []Event) int {
	h := r.head.Load()
	t := r.tail.Load() // acquire: slot writes up to t are visible
	n := int(t - h)
	if n == 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = r.slots[(h+uint64(i))&r.mask]
	}
	r.head.Store(h + uint64(n)) // release: slots are free to reuse
	return n
}

// depth is the current backlog. Approximate under concurrency; exact at
// quiescence.
func (r *ring) depth() int64 { return int64(r.tail.Load() - r.head.Load()) }

// published is the total number of events ever committed.
func (r *ring) published() int64 { return int64(r.tail.Load()) }

// Producer is the single-producer handle to one ring. The owning
// goroutine (whoever holds the engine shard, a replay querier) calls
// Reserve to claim the next slot, fills it in place, and Commit
// publishes it:
//
//	if ev := p.Reserve(); ev != nil {
//		ev.Time = now
//		...
//		p.Commit()
//	}
//
// Reserve returns nil — and counts a drop — when the ring is full; the
// caller simply skips the event. Zero-value Producers (no pipeline
// attached) are not usable; hot paths guard with a nil check on the
// Producer pointer itself.
//
// The single-producer half of the contract is the race detector's to
// check (`make race`): two goroutines sharing a Producer write its tail
// without synchronization.
type Producer struct {
	r *ring
	// tail mirrors r.tail locally so the hot path stores, never loads,
	// the shared counter; headCache amortizes the acquire-load of head to
	// once per ring-size of progress.
	tail      uint64
	headCache uint64
}

// Reserve claims the next slot for writing, or returns nil (counting a
// drop) when the ring is full. The slot contents are unspecified; fill
// every field before Commit.
//
//ldlint:noalloc
func (p *Producer) Reserve() *Event {
	r := p.r
	if p.tail-p.headCache >= uint64(len(r.slots)) {
		p.headCache = r.head.Load()
		if p.tail-p.headCache >= uint64(len(r.slots)) {
			r.drops.Add(1)
			return nil
		}
	}
	return &r.slots[p.tail&r.mask]
}

// Commit publishes the slot returned by the last successful Reserve.
//
//ldlint:noalloc
func (p *Producer) Commit() {
	p.tail++
	p.r.tail.Store(p.tail) // release: pairs with drain's tail load
}
