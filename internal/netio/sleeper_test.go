package netio

import (
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// owned runs fn as the owner goroutine of a fresh Sleeper, closes the
// sleeper and returns once the goroutine has exited.
func owned(fn func(s *Sleeper)) {
	s := NewSleeper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer s.Close()
		fn(s)
	}()
	<-done
}

func TestSleeperUntilPastReturnsAtOnce(t *testing.T) {
	owned(func(s *Sleeper) {
		start := time.Now()
		if s.Until(start.Add(-time.Second)) {
			t.Error("Until(past) = woken")
		}
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Errorf("Until(past) took %v", took)
		}
	})
}

func TestSleeperUntilRunsToDeadline(t *testing.T) {
	owned(func(s *Sleeper) {
		deadline := time.Now().Add(5 * time.Millisecond)
		if s.Until(deadline) {
			t.Error("Until with no Wake = woken")
		}
		if early := time.Until(deadline); early > 0 {
			t.Errorf("Until returned %v early", early)
		}
	})
}

// TestSleeperWakeInterrupts: a Wake from another goroutine ends a long
// timed wait and a long park promptly.
func TestSleeperWakeInterrupts(t *testing.T) {
	for _, wait := range []struct {
		name string
		fn   func(s *Sleeper) bool
	}{
		{"Until", func(s *Sleeper) bool { return s.Until(time.Now().Add(10 * time.Second)) }},
		{"Park", func(s *Sleeper) bool { return s.Park(nil) }},
	} {
		t.Run(wait.name, func(t *testing.T) {
			s := NewSleeper()
			woke := make(chan time.Time, 1)
			go func() {
				defer s.Close()
				if !wait.fn(s) {
					t.Error("interrupted wait = not woken")
				}
				woke <- time.Now()
			}()
			time.Sleep(20 * time.Millisecond) // let the owner block
			sent := time.Now()
			s.Wake()
			select {
			case at := <-woke:
				if took := at.Sub(sent); took > 50*time.Millisecond {
					t.Errorf("wait returned %v after Wake", took)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Wake did not interrupt the wait")
			}
		})
	}
}

// TestSleeperWakeIsRemembered: a Wake that finds the owner running makes
// its next wait — and only that one — return at once.
func TestSleeperWakeIsRemembered(t *testing.T) {
	owned(func(s *Sleeper) {
		s.Wake()
		s.Wake() // coalesces
		if !s.Until(time.Now().Add(10 * time.Second)) {
			t.Error("Until after Wake = not woken")
		}
		if s.Until(time.Now().Add(time.Millisecond)) {
			t.Error("second Until = woken; the wake was delivered twice")
		}
		s.Wake()
		if !s.Park(nil) {
			t.Error("Park after Wake = not woken")
		}
	})
}

// TestSleeperParkTimeout: Park returns false exactly when it took the
// timeout's value, so a caller knows whether its timer still needs
// stopping; a Wake that lost the race to the timeout stays pending.
func TestSleeperParkTimeout(t *testing.T) {
	owned(func(s *Sleeper) {
		timeout := make(chan time.Time, 1)
		timeout <- time.Now()
		if s.Park(timeout) {
			t.Error("Park with a delivered timeout = woken")
		}
		if len(timeout) != 0 {
			t.Error("Park returned false without taking the timeout")
		}
	})
	// Race Wake against the timeout many times: every Park must return,
	// and whenever it reports a timeout the wake must surface next.
	owned(func(s *Sleeper) {
		for i := 0; i < 2000; i++ {
			timeout := make(chan time.Time, 1)
			go s.Wake()
			go func() { timeout <- time.Now() }()
			if !s.Park(timeout) && !s.Park(nil) {
				t.Error("a Wake that raced the timeout was lost")
				return
			}
		}
	})
}

// TestSleeperCloseReleasesThread: sleepers created, waited on and closed
// in sequence must not pile up OS threads.
func TestSleeperCloseReleasesThread(t *testing.T) {
	cycle := func() {
		owned(func(s *Sleeper) { s.Until(time.Now().Add(100 * time.Microsecond)) })
	}
	cycle()
	threads := pprof.Lookup("threadcreate")
	before := threads.Count()
	const cycles = 50
	for i := 0; i < cycles; i++ {
		cycle()
	}
	if grew := threads.Count() - before; grew > cycles/2 {
		t.Errorf("%d sleeper cycles left %d more OS threads", cycles, grew)
	}
}

// TestSleeperWakeOvershoot logs how late timed waits return. Logged, not
// gated: the figure belongs to the host and its load, not to the code.
func TestSleeperWakeOvershoot(t *testing.T) {
	for _, d := range []time.Duration{100 * time.Microsecond, time.Millisecond} {
		over := make([]time.Duration, 500)
		owned(func(s *Sleeper) {
			for i := range over {
				deadline := time.Now().Add(d)
				s.Until(deadline)
				over[i] = time.Since(deadline)
			}
		})
		sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
		t.Logf("precise=%v wait %v: overshoot p50 %v p90 %v p99 %v max %v",
			PreciseSleep, d, over[len(over)/2], over[len(over)*9/10], over[len(over)*99/100], over[len(over)-1])
	}
}
