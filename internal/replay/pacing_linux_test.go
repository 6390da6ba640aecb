//go:build linux && (amd64 || arm64)

package replay

import (
	"context"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

// These tests need the precise sleeper (netio.PreciseSleep), which the
// build constraint above stands for: on other platforms pacing falls back
// to a Go timer and the old spin, and there is nothing to assert.

// TestPacedReplayDoesNotSpin replays one second of 1000 q/s — 1 ms gaps,
// under spinBudget, which the release loop used to spin away whole — and
// expects the process to have been mostly asleep. The bound is one-sided:
// a busy host takes CPU from this process, it cannot add to its rusage.
func TestPacedReplayDoesNotSpin(t *testing.T) {
	addr, _ := recordingServer(t)
	en, err := New(Config{UDPTarget: addr, DrainTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 1000, 8, time.Millisecond, trace.UDP)

	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	cpu0, start := cpuTime(), time.Now()
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0

	if st.Sent != int64(len(entries)) {
		t.Fatalf("sent %d of %d", st.Sent, len(entries))
	}
	t.Logf("wall %v, cpu %v (%.0f%%); %d wakeups, %v spinning, overshoot p50 %v p99 %v",
		wall, cpu, 100*cpu.Seconds()/wall.Seconds(), st.WheelWakeups, st.WheelSpin, st.WakeOvershootP50, st.WakeOvershootP99)
	if cpu > wall/2 {
		t.Errorf("paced replay used %v of CPU in %v of wall: the release loop is spinning", cpu, wall)
	}
}

// sleeperThreads counts this process's threads whose timer slack is the
// 1 ns a netio.Sleeper gives the thread it wires its owner to; 0 where
// /proc does not say.
func sleeperThreads() int {
	tasks, _ := os.ReadDir("/proc/self/task")
	n := 0
	for _, task := range tasks {
		slack, err := os.ReadFile("/proc/" + task.Name() + "/timerslack_ns")
		if err == nil && strings.TrimSpace(string(slack)) == "1" {
			n++
		}
	}
	return n
}

// TestFastModeStartsNoSleeperThread: only a replay that waits for release
// instants may take an OS thread for its wheel. The paced half is the
// control that shows the probe sees such a thread when there is one.
func TestFastModeStartsNoSleeperThread(t *testing.T) {
	addr, _ := recordingServer(t)
	midReplay := func(fast bool) (threads int, st *Stats) {
		var probed atomic.Bool
		en, err := New(Config{
			UDPTarget:    addr,
			FastMode:     fast,
			DrainTimeout: time.Millisecond,
			OnSend: func(e *trace.Entry, _ time.Time, _ time.Duration) {
				// Query 150 of 200: well after the first timed wait.
				if e.Message[1] == 150 && probed.CompareAndSwap(false, true) {
					threads = sleeperThreads()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		entries := makeTrace(t, 200, 4, 500*time.Microsecond, trace.UDP)
		st, err = en.Replay(context.Background(), trace.NewSliceReader(entries))
		if err != nil {
			t.Fatal(err)
		}
		if !probed.Load() {
			t.Fatal("probe query was never sent")
		}
		return threads, st
	}

	if threads, _ := midReplay(false); threads == 0 {
		t.Skip("no 1 ns-slack thread during a paced replay: the host refuses PR_SET_TIMERSLACK or hides it")
	}
	threads, st := midReplay(true)
	if threads != 0 {
		t.Errorf("fast-mode replay held %d sleeper thread(s)", threads)
	}
	if st.WheelWakeups != 0 || st.WheelSpin != 0 {
		t.Errorf("fast-mode replay waited on its wheel: %d wakeups, %v spinning", st.WheelWakeups, st.WheelSpin)
	}
	if after := sleeperThreads(); after != 0 {
		t.Errorf("%d sleeper thread(s) outlived their replay", after)
	}
}
