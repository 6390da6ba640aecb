//go:build !linux || !(amd64 || arm64)

package netio

import "time"

// PreciseSleep reports whether Until blocks in the kernel with a
// nanosecond timeout (true) or on a Go timer (false).
const PreciseSleep = false

// sleeperOS is the portable half of a Sleeper: one reusable Go timer.
type sleeperOS struct {
	timer *time.Timer
}

// Until blocks the owner until deadline (returning false) or Wake
// (returning true); a deadline already past returns false at once. This
// is the portable fallback, a Go timer: expect it to return a
// millisecond or so late.
func (s *Sleeper) Until(deadline time.Time) (woken bool) {
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	if s.timer == nil {
		s.timer = time.NewTimer(d)
	} else {
		s.timer.Reset(d)
	}
	if s.Park(s.timer.C) {
		s.timer.Stop()
		return true
	}
	return false
}

func (s *Sleeper) wakeTimed() {}

// Close releases the timer. The owner calls it when it is done waiting.
func (s *Sleeper) Close() {
	if s.timer != nil {
		s.timer.Stop()
	}
}
