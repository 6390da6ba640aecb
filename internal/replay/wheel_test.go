package replay

import (
	"net"
	"net/netip"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
	"ldplayer/internal/vclock"
)

// Tests for the timing wheel: release ordering (including same-tick FIFO
// and beyond-horizon overflow), retransmission firing order, lazy
// cancellation when an answer lands, and goroutine/timer hygiene after
// shutdown. All run under -race in the race suite.

// collectingWheel builds a small wheel whose deliveries append to a
// shared record of (querier, entry) in release order.
func collectingWheel(t *testing.T, tick time.Duration, slots int) (*wheel, func() []trace.Entry) {
	t.Helper()
	var mu sync.Mutex
	var got []trace.Entry
	var lag atomic.Int64
	w := newWheel(nil, tick, slots, 1, &lag, func(_ int32, b []trace.Entry) {
		mu.Lock()
		got = append(got, b...)
		mu.Unlock()
		putBatch(b)
	})
	t.Cleanup(w.stop)
	return w, func() []trace.Entry {
		mu.Lock()
		defer mu.Unlock()
		return append([]trace.Entry(nil), got...)
	}
}

// TestWheelReleaseOrder schedules entries across ticks — several sharing
// a tick, one beyond the wheel horizon — and expects release in due-time
// order with same-tick FIFO preserved.
func TestWheelReleaseOrder(t *testing.T) {
	const tick = time.Millisecond
	const slots = 64 // horizon: 64ms
	w, snapshot := collectingWheel(t, tick, slots)

	base := time.Now()
	mk := func(seq uint16) trace.Entry {
		return trace.Entry{Src: mkAddrPort(1, seq), Protocol: trace.UDP}
	}
	// Insertion order is deliberately not due order; entries 3,4,5 share
	// one tick and must come out in insertion order; entry 9 lands beyond
	// the horizon and exercises the overflow path.
	type sched struct {
		seq uint16
		due time.Duration
	}
	plan := []sched{
		{3, 20 * time.Millisecond},
		{4, 20 * time.Millisecond},
		{5, 20 * time.Millisecond},
		{1, 5 * time.Millisecond},
		{2, 12 * time.Millisecond},
		{9, 100 * time.Millisecond}, // > horizon: overflow list
		{6, 30 * time.Millisecond},
	}
	for _, p := range plan {
		w.scheduleEntry(base.Add(p.due), 0, mk(p.seq))
	}

	deadline := time.Now().Add(3 * time.Second)
	for w.pacedPending() > 0 && time.Now().Before(deadline) {
		time.Sleep(tick)
	}
	got := snapshot()
	want := []uint16{1, 2, 3, 4, 5, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("released %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Src.Port() != want[i] {
			t.Fatalf("release order %v at %d, want %v", e.Src.Port(), i, want)
		}
	}
}

// mkAddrPort builds a distinct source address for test entries.
func mkAddrPort(host byte, port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, 0, host}), port)
}

// recordingServer is a UDP listener that records arrival order of DNS
// message IDs and never answers.
func recordingServer(t *testing.T) (addr string, ids func() []uint16) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var mu sync.Mutex
	var seen []uint16
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if n >= 2 {
				mu.Lock()
				seen = append(seen, uint16(buf[0])<<8|uint16(buf[1]))
				mu.Unlock()
			}
		}
	}()
	return conn.LocalAddr().String(), func() []uint16 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint16(nil), seen...)
	}
}

// wheelQuerier wires a standalone querier to its own wheel against addr.
func wheelQuerier(t *testing.T, cfg Config) (*querier, *wheel) {
	t.Helper()
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lag atomic.Int64
	w := newWheel(nil, time.Millisecond, 1024, 1, &lag, func(_ int32, b []trace.Entry) { putBatch(b) })
	q := newQuerier(en, "wheel-test")
	q.wheel = w
	t.Cleanup(func() {
		w.stop()
		q.closeSockets()
	})
	return q, w
}

// TestWheelRetransFiringOrder arms two retransmission deadlines out of
// insertion order and expects them to fire in deadline order.
func TestWheelRetransFiringOrder(t *testing.T) {
	addr, ids := recordingServer(t)
	// The test files the queries itself and arms its own deadlines below;
	// the engine's retry timeout only sets the re-armed backoff.
	q, w := wheelQuerier(t, Config{UDPTarget: addr, UDPRetries: 1, UDPRetryTimeout: time.Hour})

	src := mkAddrPort(7, 5353)
	sock, err := q.getUDP(src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	msgA := []byte{0x00, 0x01, 0x00, 0x00} // id 1
	msgB := []byte{0x00, 0x02, 0x00, 0x00} // id 2
	if _, err := sock.conn.Write(msgA); err != nil {
		t.Fatal(err)
	}
	seqA := sock.pend.send(time.Now(), msgA)
	if _, err := sock.conn.Write(msgB); err != nil {
		t.Fatal(err)
	}
	seqB := sock.pend.send(time.Now(), msgB)

	// Arm A after B despite A being sent first: firing must follow the
	// deadlines, not insertion or send order.
	w.scheduleRetrans(120*time.Millisecond, q, sock, 1, seqA)
	w.scheduleRetrans(40*time.Millisecond, q, sock, 2, seqB)

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if got := ids(); len(got) >= 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := ids()
	want := []uint16{1, 2, 2, 1} // sends in order, retransmits by deadline
	if len(got) != len(want) {
		t.Fatalf("server saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", got, want)
		}
	}
}

// TestWheelRetransCancelledByAnswer marks a tracked query answered before
// its retransmission deadline; the armed wheel slot must fire as a stale
// no-op (no datagram, no giveup).
func TestWheelRetransCancelledByAnswer(t *testing.T) {
	addr, ids := recordingServer(t)
	q, w := wheelQuerier(t, Config{UDPTarget: addr, UDPRetries: 2, UDPRetryTimeout: time.Hour})

	src := mkAddrPort(8, 5353)
	sock, err := q.getUDP(src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte{0x00, 0x03, 0x00, 0x00} // id 3
	if _, err := sock.conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	w.scheduleRetrans(30*time.Millisecond, q, sock, 3, sock.pend.send(time.Now(), msg))

	// The answer lands before the deadline: the slot clears and the armed
	// deadline goes stale.
	if outcome, _ := sock.pend.settle(3, time.Now()); outcome != pendFresh {
		t.Fatalf("settle(3) = %v, want a fresh answer", outcome)
	}
	time.Sleep(150 * time.Millisecond)
	if got := ids(); len(got) != 1 {
		t.Fatalf("server saw %v; cancelled retransmission still fired", got)
	}
	if g := q.en.giveups.Load(); g != 0 {
		t.Fatalf("giveups = %d after cancelled retransmission", g)
	}
	if r := q.en.udpRetransmits.Load(); r != 0 {
		t.Fatalf("udpRetransmits = %d after cancelled retransmission", r)
	}
}

// TestNoGoroutineLeakAfterReplay runs full replays with armed
// retransmissions against a blackhole, a fresh engine each time, and
// expects every engine goroutine — wheel, socket readers, distributors —
// to exit once Replay returns, and the wheels' sleeper threads to go back
// to the runtime: neither goroutines nor OS threads may pile up.
func TestNoGoroutineLeakAfterReplay(t *testing.T) {
	addr, _ := recordingServer(t)
	goroutines := runtime.NumGoroutine()
	cycle := func() {
		en, err := New(Config{
			UDPTarget:       addr,
			UDPRetries:      2,
			UDPRetryTimeout: 2 * time.Millisecond,
			DrainTimeout:    500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		entries := makeTrace(t, 32, 8, 0, trace.UDP)
		st, err := en.Replay(t.Context(), trace.NewSliceReader(entries))
		if err != nil {
			t.Fatal(err)
		}
		if st.WheelWakeups == 0 {
			t.Fatal("no timed wheel wait: the retransmission deadlines never armed a sleeper")
		}
	}
	cycle() // warm the runtime's thread pool
	threads := pprof.Lookup("threadcreate")
	threadsBefore := threads.Count()

	const cycles = 50
	for i := 0; i < cycles; i++ {
		cycle()
	}

	if grew := threads.Count() - threadsBefore; grew > cycles/2 {
		t.Errorf("%d replays left %d more OS threads", cycles, grew)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutines {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before %d replays, %d after; wheel or socket reader leaked",
		goroutines, cycles, runtime.NumGoroutine())
}

// TestWheelUnderSimClock drives the wheel from a SimClock: entries are
// scheduled at virtual offsets and must be released only when Advance
// pushes virtual time across their due tick — including an entry beyond
// the wheel horizon. The wheel goroutine wakes asynchronously off the
// sim timer channel, so observations poll with a real deadline.
func TestWheelUnderSimClock(t *testing.T) {
	clk := vclock.NewSim(time.Time{})
	var mu sync.Mutex
	var got []uint16
	var lag atomic.Int64
	w := newWheel(clk, time.Millisecond, 64, 1, &lag, func(_ int32, b []trace.Entry) {
		mu.Lock()
		for _, e := range b {
			got = append(got, e.Src.Port())
		}
		mu.Unlock()
		putBatch(b)
	})
	t.Cleanup(w.stop)

	ports := func() []uint16 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint16(nil), got...)
	}
	waitLen := func(n int) []uint16 {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if p := ports(); len(p) >= n {
				return p
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("released %v, want %d entries", ports(), n)
		return nil
	}

	base := clk.Now()
	mk := func(seq uint16) trace.Entry {
		return trace.Entry{Src: mkAddrPort(2, seq), Protocol: trace.UDP}
	}
	w.scheduleEntry(base.Add(5*time.Millisecond), 0, mk(1))
	w.scheduleEntry(base.Add(20*time.Millisecond), 0, mk(2))
	w.scheduleEntry(base.Add(100*time.Millisecond), 0, mk(3)) // beyond 64ms horizon

	// Virtual time at 4ms: nothing is due. Give the wheel goroutine a
	// real-time window to misbehave before asserting.
	clk.Advance(4 * time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	if p := ports(); len(p) != 0 {
		t.Fatalf("released %v before virtual time reached any due tick", p)
	}

	// Crossing tick 5 releases exactly the first entry.
	clk.Advance(time.Millisecond)
	if p := waitLen(1); len(p) != 1 || p[0] != 1 {
		t.Fatalf("after 5ms virtual released %v, want [1]", p)
	}

	// A big jump releases the rest, still in due order.
	clk.Advance(101 * time.Millisecond)
	p := waitLen(3)
	want := []uint16{1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("released %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("release order %v, want %v", p, want)
		}
	}
	if w.pacedPending() != 0 {
		t.Fatalf("pacedPending = %d after all releases", w.pacedPending())
	}
}

// TestWheelWaitMetrics: a paced replay on an instrumented engine answers
// "is this client burning a core?" from one scrape — timed waits, the time
// spun after them, how late the waits returned and the guard in force —
// and the same numbers come back in Stats.
func TestWheelWaitMetrics(t *testing.T) {
	addr, _ := recordingServer(t)
	en, err := New(Config{UDPTarget: addr, DrainTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	en.Instrument(reg)
	entries := makeTrace(t, 50, 2, 4*time.Millisecond, trace.UDP) // gaps over spinBudget: every platform sleeps
	st, err := en.Replay(t.Context(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string) obs.Sample {
		t.Helper()
		s, ok := reg.Find(name, "")
		if !ok {
			t.Fatalf("series %s not registered", name)
		}
		return s
	}
	if got := find("ldplayer_wheel_wakeups_total").Value; got == 0 || got != st.WheelWakeups {
		t.Errorf("wakeups series = %d, Stats.WheelWakeups = %d, want equal and > 0", got, st.WheelWakeups)
	}
	if got := find("ldplayer_wheel_spin_ns_total").Value; got <= 0 || got != int64(st.WheelSpin) {
		t.Errorf("spin series = %d ns, Stats.WheelSpin = %v, want equal and > 0", got, st.WheelSpin)
	}
	if got := find("ldplayer_wheel_wake_overshoot_ns").Hist.Count; got != st.WheelWakeups {
		t.Errorf("overshoot histogram holds %d samples for %d wakeups", got, st.WheelWakeups)
	}
	if got := time.Duration(find("ldplayer_wheel_guard_ns").Value); got < tightSpin || got > spinBudget {
		t.Errorf("guard gauge = %v, outside [%v, %v]", got, tightSpin, spinBudget)
	}
	if st.WakeOvershootP99 < st.WakeOvershootP50 {
		t.Errorf("overshoot p50 %v above p99 %v", st.WakeOvershootP50, st.WakeOvershootP99)
	}
}
