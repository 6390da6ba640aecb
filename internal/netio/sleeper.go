package netio

import (
	"sync/atomic"
	"time"
)

// A Sleeper parks one goroutine — its owner — until a deadline or until
// another goroutine calls Wake, whichever comes first. It exists because
// a Go timer cannot wait for less than a millisecond with any precision:
// the runtime sleeps in epoll_wait, whose timeout is in whole
// milliseconds, so a 200 µs wait returns about 1 ms late, and a pacing
// loop that needs sub-millisecond release times is left to spin. Until
// (see the platform files) blocks the owner's own OS thread in the kernel
// with a nanosecond timeout instead; on platforms without one it falls
// back to a Go timer and says so through PreciseSleep.
//
// Wakes are level-triggered and coalesce: a Wake that finds the owner
// running is remembered and makes its next Until or Park return at once,
// so "publish work, then Wake" never loses the work. Until, Park and
// Close belong to the owner goroutine; Wake may be called from any
// goroutine, also after Close.
type Sleeper struct {
	// state is the futex word on Linux, so it stays a plain uint32 (its
	// address goes to the kernel) accessed only through sync/atomic.
	state uint32
	// wake carries the one token a Wake owes a parked owner.
	wake chan struct{}

	sleeperOS
}

const (
	sleeperAwake  uint32 = iota // owner running, no wake pending
	sleeperWoken                // wake pending, or being delivered
	sleeperParked               // owner blocked in Park
	sleeperTimed                // owner blocked in the kernel wait (Linux)
)

// NewSleeper returns a Sleeper. It holds no thread and no timer until the
// first Until.
func NewSleeper() *Sleeper {
	return &Sleeper{wake: make(chan struct{}, 1)}
}

// Wake makes the owner's current wait, or else its next one, return with
// woken = true.
//
//ldlint:noalloc
func (s *Sleeper) Wake() {
	switch atomic.SwapUint32(&s.state, sleeperWoken) {
	case sleeperParked:
		// Exactly one parked→woken transition per Park, so the buffered
		// slot is free and this never blocks.
		s.wake <- struct{}{}
	case sleeperTimed:
		s.wakeTimed()
	}
}

// Park blocks on the Go scheduler — no thread is held — until Wake
// (returning true) or until timeout delivers (returning false, and only
// then has a value been taken from timeout); a nil timeout waits for Wake
// alone. It is the wait for callers with no deadline, or with one kept by
// a clock of their own.
//
//ldlint:noalloc
func (s *Sleeper) Park(timeout <-chan time.Time) (woken bool) {
	if !atomic.CompareAndSwapUint32(&s.state, sleeperAwake, sleeperParked) {
		atomic.StoreUint32(&s.state, sleeperAwake) // consume the pending wake
		return true
	}
	select {
	case <-s.wake:
		atomic.StoreUint32(&s.state, sleeperAwake)
		return true
	case <-timeout:
		if !atomic.CompareAndSwapUint32(&s.state, sleeperParked, sleeperAwake) {
			// A Wake raced the timeout. Take the token it owes and leave
			// the wake pending: the next wait returns at once.
			<-s.wake
		}
		return false
	}
}
