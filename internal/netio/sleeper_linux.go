//go:build linux && (amd64 || arm64)

package netio

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// PreciseSleep reports whether Until blocks in the kernel with a
// nanosecond timeout (true) or on a Go timer (false).
const PreciseSleep = true

// futex(2) operations, process-private, and the prctl(2) option that sets
// the calling thread's timer slack.
const (
	futexWaitPrivate = 0 | 128
	futexWakePrivate = 1 | 128
	prSetTimerslack  = 29
)

// sleeperOS is the Linux half of a Sleeper.
type sleeperOS struct {
	// locked records that the owner goroutine is wired to its OS thread
	// and that thread's timer slack is 1 ns.
	locked bool
}

// Until blocks the owner until deadline (returning false) or Wake
// (returning true); a deadline already past returns false at once. The
// wait is a futex wait on the owner's own thread. The kernel rounds a
// thread's timer expiries up by its timer slack — 50 µs by default — and
// the slack is per thread, so the first Until wires the goroutine to its
// thread and lowers that thread's slack to 1 ns; Close undoes both.
//
//ldlint:noalloc
func (s *Sleeper) Until(deadline time.Time) (woken bool) {
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	if !s.locked {
		s.lockThread()
	}
	if !atomic.CompareAndSwapUint32(&s.state, sleeperAwake, sleeperTimed) {
		atomic.StoreUint32(&s.state, sleeperAwake) // consume the pending wake
		return true
	}
	for d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// The blocking Syscall6, not RawSyscall6: the runtime must know the
		// thread is gone so it can hand the P to another one.
		_, _, errno := syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&s.state)),
			futexWaitPrivate, uintptr(sleeperTimed), uintptr(unsafe.Pointer(&ts)), 0, 0)
		if errno != syscall.EINTR {
			break // timed out, woken, or the word had already changed
		}
		d = time.Until(deadline)
	}
	return atomic.SwapUint32(&s.state, sleeperAwake) == sleeperWoken
}

// lockThread wires the owner to its thread and asks for 1 ns timer slack.
// A refused prctl leaves the default slack: waits stay correct and return
// some tens of microseconds later, which the caller's own measurement of
// wake overshoot absorbs.
func (s *Sleeper) lockThread() {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	s.locked = true
}

//ldlint:noalloc
func (s *Sleeper) wakeTimed() {
	syscall.RawSyscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&s.state)), futexWakePrivate, 1, 0, 0, 0)
}

// Close releases what Until took: the thread gets its default timer slack
// back (slack 0 asks for the default) and returns to the runtime's pool.
// The owner calls it when it is done waiting.
func (s *Sleeper) Close() {
	if s.locked {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0)
		runtime.UnlockOSThread()
		s.locked = false
	}
}
