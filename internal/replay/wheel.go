package replay

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/netio"
	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
	"ldplayer/internal/vclock"
)

// The timing wheel is the replay clock: one per distributor, one
// goroutine, one ticker. Trace entries are binned into coarse ticks and
// released as per-querier bursts when their tick expires, and UDP
// retransmission deadlines occupy slots on the same wheel — so 100k
// in-flight queries cost 100k list nodes, not 100k kernel timers, and a
// due burst costs one wakeup instead of one timer-channel receive per
// query.
//
// Ordering: entries arrive from the distributor in trace order with
// nondecreasing due times, inserts clamp to the wheel's current tick,
// slots are FIFO, and ticks are processed strictly in order — so
// same-source sends stay in trace order end to end.
//
// Cancellation is lazy: a retransmit slot is invalidated by bumping the
// pending entry's sequence number (answer, ID reuse, close) and the item
// no-ops when its tick fires. Nothing ever searches the wheel.

// wheelItem is one scheduled event: a paced trace entry (kindEntry) or a
// retransmission deadline (kindRetrans). Items are recycled on a
// freelist under the wheel lock.
type wheelItem struct {
	next    *wheelItem
	dueTick int64
	kind    uint8

	// kindEntry
	qidx  int32
	entry trace.Entry

	// kindRetrans
	q    *querier
	sock *udpSocket
	id   uint16
	seq  uint32
}

const (
	kindEntry = iota
	kindRetrans
)

// slotList is an intrusive FIFO of wheel items.
type slotList struct{ head, tail *wheelItem }

//ldlint:noalloc
func (l *slotList) push(it *wheelItem) {
	it.next = nil
	if l.tail == nil {
		l.head = it
	} else {
		l.tail.next = it
	}
	l.tail = it
}

// The release loop sleeps to just short of the next due tick and spins
// the rest: it blocks on a netio.Sleeper until target − guard, where guard
// is the sleeper's own measured wake overshoot, and then holds the CPU to
// the exact release instant. spinBudget and tightSpin bound the guard:
// never less than tightSpin, so a scheduler round-trip cannot push a
// release past its deadline, and never more than spinBudget, which is
// also the fixed guard of a platform whose sleeper is a Go timer (wakeups
// there are a millisecond late, far worse than the pacing budget). An
// empty wheel parks until an insert wakes it; under a SimClock it keeps
// re-checking at idleRecheck of virtual time.
const (
	spinBudget  = 2 * time.Millisecond
	tightSpin   = 30 * time.Microsecond
	idleRecheck = 100 * time.Millisecond
)

// wheelStats is what an engine's wheels report about their own waiting:
// the numbers that say whether pacing sleeps or burns a core.
type wheelStats struct {
	// wakeups counts timed waits that ran to their deadline; spinNs is
	// the time spent spinning from those wakes to the release instants.
	wakeups atomic.Int64
	spinNs  atomic.Int64
	// guard is the most recent guard, in nanoseconds.
	guard atomic.Int64
	// overshoot records how long after its deadline each timed wait
	// returned, in nanoseconds.
	overshoot atomic.Pointer[obs.Histogram]
}

type wheel struct {
	// clock is the wheel's tick source. Real by default; under a
	// SimClock the release loop sleeps on virtual timers and never spins
	// (spinning would busy-wait forever — simulated time only moves
	// through events).
	clock vclock.Clock
	tick  time.Duration
	mask  int64
	start time.Time

	mu       sync.Mutex
	slots    []slotList
	overflow slotList
	// overflowMin is the earliest dueTick in overflow; when it comes
	// within the horizon the overflow list is folded back into the wheel.
	overflowMin int64
	cur         int64 // next tick to process
	free        *wheelItem
	// sleepTick is the tick the release loop is currently sleeping
	// toward; an insert due sooner wakes the sleeper.
	sleepTick int64

	// paced counts kindEntry items not yet delivered; the distributor
	// drains on it at end of trace.
	paced atomic.Int64
	// lag receives the wheel's scheduling debt in nanoseconds — the
	// engine's wheel-lag gauge.
	lag *atomic.Int64

	deliver func(qidx int32, batch []trace.Entry)
	scratch [][]trace.Entry // per-querier batch assembly, advance only

	// sleeper is where the release loop waits; inserts and stop wake it.
	sleeper *netio.Sleeper
	stopped atomic.Bool
	doneCh  chan struct{}

	// overMean and overDev estimate the sleeper's wake overshoot (mean
	// and mean deviation, nanoseconds; release loop only). overMean < 0
	// until the first sample.
	overMean, overDev int64
	// stats, when set, receives the loop's wait accounting.
	stats atomic.Pointer[wheelStats]
}

// newWheel sizes a wheel: tick granularity, a power-of-two slot count,
// and the querier fan-out it delivers to.
func newWheel(clk vclock.Clock, tick time.Duration, slots, queriers int, lag *atomic.Int64, deliver func(int32, []trace.Entry)) *wheel {
	if slots&(slots-1) != 0 {
		panic("replay: wheel slots must be a power of two")
	}
	clk = vclock.Or(clk)
	w := &wheel{
		clock:   clk,
		tick:    tick,
		mask:    int64(slots - 1),
		start:   clk.Now(),
		slots:   make([]slotList, slots),
		lag:     lag,
		deliver: deliver,
		scratch: make([][]trace.Entry, queriers),
		sleeper: netio.NewSleeper(),
		doneCh:  make(chan struct{}),
	}
	w.sleepTick = 1 << 62
	w.overMean = -1
	go w.run()
	return w
}

// horizon is the wheel's forward scheduling capacity.
func (w *wheel) horizon() time.Duration {
	return w.tick * time.Duration(len(w.slots))
}

// tickOf maps a deadline to its tick number, rounding up so releases are
// never early.
//
//ldlint:noalloc
func (w *wheel) tickOf(due time.Time) int64 {
	d := due.Sub(w.start)
	if d <= 0 {
		return 0
	}
	return int64((d + w.tick - 1) / w.tick)
}

// itemChunk is how many wheelItems are allocated at once when the
// freelist runs dry: items are population-sized (one per in-flight
// deadline), so chunking turns tens of thousands of warmup allocations
// into a few slab allocations with better locality.
const itemChunk = 256

// newItem pops the freelist, refilling it a chunk at a time; callers
// hold w.mu.
//
//ldlint:noalloc
func (w *wheel) newItem() *wheelItem {
	if w.free == nil {
		chunk := make([]wheelItem, itemChunk) //ldlint:ignore noalloc amortized slab refill, one make per itemChunk items
		for i := range chunk {
			chunk[i].next = w.free
			w.free = &chunk[i]
		}
	}
	it := w.free
	w.free = it.next
	*it = wheelItem{}
	return it
}

// recycle pushes items back on the freelist, dropping entry references;
// callers hold w.mu.
//
//ldlint:noalloc
func (w *wheel) recycle(it *wheelItem) {
	*it = wheelItem{next: w.free}
	w.free = it
}

// insert files it at dueTick (clamped to the current tick) and wakes the
// release loop if this item is due before its current sleep target;
// callers hold w.mu.
//
//ldlint:noalloc
func (w *wheel) insert(it *wheelItem) {
	if it.dueTick < w.cur {
		it.dueTick = w.cur
	}
	if it.dueTick-w.cur > w.mask {
		if w.overflow.head == nil || it.dueTick < w.overflowMin {
			w.overflowMin = it.dueTick
		}
		w.overflow.push(it)
	} else {
		w.slots[it.dueTick&w.mask].push(it)
	}
	if it.dueTick < w.sleepTick {
		w.sleepTick = it.dueTick
		w.sleeper.Wake()
	}
}

// scheduleEntry bins a paced trace entry for release to querier qidx at
// due.
//
//ldlint:noalloc
func (w *wheel) scheduleEntry(due time.Time, qidx int32, e trace.Entry) {
	w.paced.Add(1)
	w.mu.Lock()
	it := w.newItem()
	it.dueTick = w.tickOf(due)
	it.kind = kindEntry
	it.qidx = qidx
	it.entry = e
	w.insert(it)
	w.mu.Unlock()
}

// scheduleRetrans arms a retransmission deadline for (sock, id, seq).
//
//ldlint:noalloc
func (w *wheel) scheduleRetrans(delay time.Duration, q *querier, sock *udpSocket, id uint16, seq uint32) {
	w.mu.Lock()
	it := w.newItem()
	it.dueTick = w.tickOf(w.clock.Now().Add(delay))
	it.kind = kindRetrans
	it.q = q
	it.sock = sock
	it.id = id
	it.seq = seq
	w.insert(it)
	w.mu.Unlock()
}

// rescanOverflow re-files overflow items now within the horizon and
// recomputes the overflow watermark; callers hold w.mu.
func (w *wheel) rescanOverflow() {
	var rest slotList
	min := int64(1) << 62
	for it := w.overflow.head; it != nil; {
		next := it.next
		if it.dueTick-w.cur <= w.mask {
			it.next = nil
			w.insert(it)
		} else {
			if it.dueTick < min {
				min = it.dueTick
			}
			rest.push(it)
		}
		it = next
	}
	w.overflow = rest
	w.overflowMin = min
}

// nextDue finds the earliest scheduled tick and records it as the sleep
// target (under the lock, so a racing insert either is seen by this scan
// or sees the fresh target and wakes the sleeper).
func (w *wheel) nextDue() (int64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	best := int64(-1)
	for off := int64(0); off <= w.mask; off++ {
		t := w.cur + off
		it := w.slots[t&w.mask].head
		if it == nil {
			continue
		}
		// A slot can also hold items for future rotations; take its min.
		min := it.dueTick
		for it = it.next; it != nil; it = it.next {
			if it.dueTick < min {
				min = it.dueTick
			}
		}
		if best < 0 || min < best {
			best = min
		}
		if min == t {
			// Due this rotation: later offsets and prior future-rotation
			// candidates are all strictly later.
			break
		}
	}
	for it := w.overflow.head; it != nil; it = it.next {
		if best < 0 || it.dueTick < best {
			best = it.dueTick
		}
	}
	if best < 0 {
		w.sleepTick = 1 << 62
		return 0, false
	}
	w.sleepTick = best
	return best, true
}

// run is the release loop: process due ticks, then wait for the next
// scheduled one.
func (w *wheel) run() {
	defer close(w.doneCh)
	defer w.sleeper.Close()
	if !vclock.IsReal(w.clock) {
		w.runSim()
		return
	}
	for !w.stopped.Load() {
		w.advance(w.clock.Now())
		if next, ok := w.nextDue(); ok {
			w.waitUntil(w.start.Add(time.Duration(next) * w.tick))
		} else {
			w.sleeper.Park(nil)
		}
	}
}

// runSim is the release loop in simulated time: sleep the exact remaining
// distance on a virtual timer — the SimClock jumps straight to the due
// instant, so there is no wakeup latency to spin away (and a spin would
// never end: virtual time doesn't flow while this goroutine runs).
func (w *wheel) runSim() {
	timer := w.clock.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C()
	}
	for !w.stopped.Load() {
		w.advance(w.clock.Now())
		d := idleRecheck
		if next, ok := w.nextDue(); ok {
			d = w.start.Add(time.Duration(next) * w.tick).Sub(w.clock.Now())
		}
		if d <= 0 {
			continue
		}
		timer.Reset(d)
		if w.sleeper.Park(timer.C()) && !timer.Stop() {
			<-timer.C()
		}
	}
}

// waitUntil returns at target, or sooner when an insert or stop wakes the
// sleeper. It sleeps to target − guard and spins the residual. The guard
// is what the sleeper has been seen to need: mean wake overshoot plus four
// mean deviations (the retransmission-timer estimator, gains 1/8 and
// 1/4), within [tightSpin, spinBudget].
//
//ldlint:noalloc
func (w *wheel) waitUntil(target time.Time) {
	guard := spinBudget
	if netio.PreciseSleep {
		// Before the first sample (overMean −1) this is tightSpin.
		guard = min(max(time.Duration(w.overMean+4*w.overDev), tightSpin), spinBudget)
	}
	rem := time.Until(target)
	if rem > guard {
		if w.sleeper.Until(target.Add(-guard)) {
			return // re-evaluate: earlier work arrived or stopping
		}
		rem = time.Until(target)
		w.observeWake(guard-rem, guard)
	} else if w.overMean > 0 {
		// The guard covers the whole gap, so no wait and no sample. Shrink
		// the estimate: a guard inflated by a burst of late wakes (the
		// host took the CPU away) must not keep itself from ever sleeping,
		// and so from ever measuring, again.
		w.overMean -= w.overMean / 4
		w.overDev -= w.overDev / 4
	}
	spun := rem
	for rem > 0 && !w.stopped.Load() {
		// Yield only from an unlocked goroutine: on the precise sleeper's
		// locked thread a Gosched parks the thread and bounces its P
		// through another one, which costs more than the spin it saves.
		if !netio.PreciseSleep && rem > tightSpin {
			runtime.Gosched()
		}
		rem = time.Until(target)
	}
	if st := w.stats.Load(); st != nil && spun > 0 {
		st.spinNs.Add(int64(spun - rem))
	}
}

// observeWake folds one timed wait's overshoot — how long after its
// deadline the sleeper returned — into the guard estimate and the stats.
//
//ldlint:noalloc
func (w *wheel) observeWake(over, guard time.Duration) {
	// A sample beyond the guard's upper bound says no more than the bound
	// does; unclamped, one descheduled wake would pin the guard for long.
	o := int64(min(max(over, 0), spinBudget))
	if w.overMean < 0 {
		w.overMean, w.overDev = o, o/2
	} else {
		err := o - w.overMean
		w.overMean += err / 8
		if err < 0 {
			err = -err
		}
		w.overDev += (err - w.overDev) / 4
	}
	if st := w.stats.Load(); st != nil {
		st.wakeups.Add(1)
		st.guard.Store(int64(guard))
		st.overshoot.Load().Record(int64(over))
	}
}

// advance processes every tick up to now: due items are collected in
// tick order under the lock, then delivered (paced bursts) and fired
// (retransmissions) outside it.
//
//ldlint:noalloc
func (w *wheel) advance(now time.Time) {
	w.mu.Lock()
	target := int64(now.Sub(w.start) / w.tick)
	if target < w.cur {
		w.mu.Unlock()
		return
	}
	w.lag.Store(int64(now.Sub(w.start.Add(time.Duration(w.cur) * w.tick))))
	var due slotList
	for w.cur <= target {
		s := &w.slots[w.cur&w.mask]
		var keep slotList
		for it := s.head; it != nil; {
			next := it.next
			if it.dueTick <= w.cur {
				due.push(it)
			} else {
				keep.push(it)
			}
			it = next
		}
		*s = keep
		w.cur++
		if w.overflow.head != nil && w.overflowMin-w.cur <= w.mask {
			w.rescanOverflow()
		}
	}
	w.mu.Unlock()

	if due.head == nil {
		return
	}
	// Assemble per-querier bursts in release order, then hand them off.
	// Retransmissions fire inline — they re-send on this goroutine, which
	// is exactly the "slots on the wheel, work on one loop" design.
	released := 0
	for it := due.head; it != nil; it = it.next {
		switch it.kind {
		case kindEntry:
			if w.scratch[it.qidx] == nil {
				w.scratch[it.qidx] = getBatch()
			}
			w.scratch[it.qidx] = append(w.scratch[it.qidx], it.entry)
			released++
		case kindRetrans:
			it.q.retransmitUDP(it.sock, it.id, it.seq)
		}
	}
	for qidx, b := range w.scratch {
		if b != nil {
			w.scratch[qidx] = nil
			w.deliver(int32(qidx), b)
		}
	}
	if released > 0 {
		w.paced.Add(int64(-released))
	}
	w.mu.Lock()
	for it := due.head; it != nil; {
		next := it.next
		w.recycle(it)
		it = next
	}
	w.mu.Unlock()
}

// pacedPending reports undelivered paced entries (the distributor's drain
// condition).
func (w *wheel) pacedPending() int64 { return w.paced.Load() }

// discardPaced drops every undelivered paced entry (context
// cancellation); retransmission items stay armed.
func (w *wheel) discardPaced() {
	w.mu.Lock()
	dropped := 0
	filter := func(l slotList) slotList {
		var keep slotList
		for it := l.head; it != nil; {
			next := it.next
			if it.kind == kindEntry {
				w.recycle(it)
				dropped++
			} else {
				it.next = nil
				keep.push(it)
			}
			it = next
		}
		return keep
	}
	for i := range w.slots {
		w.slots[i] = filter(w.slots[i])
	}
	w.overflow = filter(w.overflow)
	w.mu.Unlock()
	if dropped > 0 {
		w.paced.Add(int64(-dropped))
	}
}

// stop terminates the wheel goroutine and drops all scheduled work.
func (w *wheel) stop() {
	w.stopped.Store(true)
	w.sleeper.Wake()
	<-w.doneCh
}

// batchFree recycles the entry batches that flow from the wheel (and the
// fast-mode distributor) to the queriers. A buffered channel rather than
// a sync.Pool: channel send/receive of a slice does not box it into an
// interface, so recycling a batch is allocation-free — with a Pool every
// Put costs one heap allocation, i.e. one allocation per released burst.
// The capacity bounds the resident recycled memory (~0.5 MiB per batch
// at the 4096-entry capacity); overflow batches are simply dropped for
// the GC. Sized to cover the datapath's worst-case in-flight batch count
// (window + distributor + querier queues), so steady state recycles
// instead of re-zeroing half-megabyte allocations.
var batchFree = make(chan []trace.Entry, 64)

func getBatch() []trace.Entry {
	select {
	case b := <-batchFree:
		return b
	default:
		//ldlint:ignore noallocprop amortized freelist refill: a fresh batch only when all 64 recycled ones are in flight
		return make([]trace.Entry, 0, defaultMaxBatch)
	}
}

func putBatch(b []trace.Entry) {
	if cap(b) < defaultMaxBatch {
		return // undersized stray; let the GC take it
	}
	// Clearing only the used prefix drops the message references so slabs
	// can be collected. The tail beyond len is already zero: fresh batches
	// come from make, recycled ones were cleared here, and producers only
	// ever write the prefix they hand off.
	clear(b)
	select {
	case batchFree <- b[:0]:
	default:
	}
}
