//go:build linux && (amd64 || arm64)

package netio

import (
	"syscall"
	"testing"
	"time"
)

// timerSlack is the calling thread's timer slack in nanoseconds.
func timerSlack() uintptr {
	const prGetTimerslack = 30
	ns, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerslack, 0, 0)
	return ns
}

// TestSleeperTimerSlack: the first Until lowers the owner thread's timer
// slack to 1 ns, and Close hands the thread back with its default.
func TestSleeperTimerSlack(t *testing.T) {
	var during, after uintptr
	owned(func(s *Sleeper) {
		s.Until(time.Now().Add(100 * time.Microsecond))
		during = timerSlack()
		s.Close()
		after = timerSlack()
	})
	if during != 1 {
		t.Skipf("timer slack after Until = %d ns: the host refuses PR_SET_TIMERSLACK", during)
	}
	if after == 1 {
		t.Error("timer slack still 1 ns after Close")
	}
}
