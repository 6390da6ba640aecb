package replay

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

// Tests for the UDP retransmission machinery and the drain condition: the
// replay engine must recover lost queries by retransmitting with backoff,
// give up cleanly when the budget is spent, never double-count duplicated
// responses, and never sleep out the drain window when nothing is
// outstanding.

// scriptedUDPServer answers queries according to fate(nthArrival) — 0
// answer once, < 0 drop, k > 0 answer k times (duplication).
func scriptedUDPServer(t *testing.T, fate func(n int64) int) (addr string, seen *[]uint16, mu *sync.Mutex) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	seen = &[]uint16{}
	mu = &sync.Mutex{}
	var arrivals int64
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, raddr, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			arrivals++
			if n >= 2 {
				mu.Lock()
				*seen = append(*seen, uint16(buf[0])<<8|uint16(buf[1]))
				mu.Unlock()
			}
			copies := fate(arrivals)
			if copies <= 0 {
				if copies == 0 {
					copies = 1
				} else {
					continue // drop
				}
			}
			resp := append([]byte(nil), buf[:n]...)
			resp[2] |= 0x80 // QR
			for i := 0; i < copies; i++ {
				_, _ = conn.WriteToUDP(resp, raddr)
			}
		}
	}()
	return conn.LocalAddr().String(), seen, mu
}

// TestDrainSkipsWhenAllAnswered is the regression test for the drain
// operator-precedence bug: an all-answered run must not sleep out the
// drain window.
func TestDrainSkipsWhenAllAnswered(t *testing.T) {
	_, cfg := testServer(t, false)
	cfg.DrainTimeout = 10 * time.Second
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 10, 2, time.Millisecond, trace.UDP)
	start := time.Now()
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Responses != 10 {
		t.Fatalf("responses = %d", st.Responses)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("all-answered run took %v; drain window (%v) was slept out", elapsed, cfg.DrainTimeout)
	}
}

// dropFirstUDPServer loses the first transmission of every query (by DNS
// ID) and answers the ones after it.
func dropFirstUDPServer(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		var seen [1 << 16]bool
		buf := make([]byte, 64*1024)
		for {
			n, raddr, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if id := msgID(buf[:n]); n < 3 || !seen[id] {
				seen[id] = true
				continue
			}
			buf[2] |= 0x80 // QR
			_, _ = conn.WriteToUDP(buf[:n], raddr)
		}
	}()
	return conn.LocalAddr().String()
}

// TestUDPRetransmitRecoversLoss drops every first arrival of a query; the
// retransmission must get it answered.
func TestUDPRetransmitRecoversLoss(t *testing.T) {
	en, err := New(Config{
		UDPTarget:       dropFirstUDPServer(t),
		UDPRetries:      2,
		UDPRetryTimeout: 40 * time.Millisecond,
		DrainTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 12, 3, time.Millisecond, trace.UDP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 12 || st.Responses != 12 {
		t.Errorf("sent=%d responses=%d, want 12/12 via retransmission", st.Sent, st.Responses)
	}
	if st.UDPRetransmits < 12 {
		t.Errorf("retransmits = %d, want >= 12", st.UDPRetransmits)
	}
	if st.Giveups != 0 {
		t.Errorf("giveups = %d", st.Giveups)
	}
}

// TestUDPGiveupAfterBudget blackholes everything: every query must be
// retransmitted UDPRetries times and then given up — which is its one
// ending: a given-up query is not also unanswered — and the run must
// terminate once the last one has, not at the drain deadline.
func TestUDPGiveupAfterBudget(t *testing.T) {
	addr, _, _ := scriptedUDPServer(t, func(int64) int { return -1 })
	en, err := New(Config{
		UDPTarget:       addr,
		UDPRetries:      1,
		UDPRetryTimeout: 30 * time.Millisecond,
		DrainTimeout:    3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 8, 2, 0, trace.UDP)
	start := time.Now()
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 8 || st.Responses != 0 {
		t.Errorf("sent=%d responses=%d", st.Sent, st.Responses)
	}
	if st.Giveups != 8 {
		t.Errorf("giveups = %d, want 8", st.Giveups)
	}
	if st.Unanswered != 0 {
		t.Errorf("unanswered = %d, want 0: all 8 were given up", st.Unanswered)
	}
	if st.UDPRetransmits != 8 {
		t.Errorf("retransmits = %d, want 8 (1 retry each)", st.UDPRetransmits)
	}
	// All giveups land well before the 3s drain window: the run must exit
	// early rather than sleep it out.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("blackholed run took %v; should exit once every query gave up", elapsed)
	}
}

// TestDuplicatedResponsesNotDoubleCounted answers every query twice; the
// engine must count each query answered exactly once and the surplus as
// duplicates.
func TestDuplicatedResponsesNotDoubleCounted(t *testing.T) {
	addr, _, _ := scriptedUDPServer(t, func(int64) int { return 2 })
	en, err := New(Config{
		UDPTarget:    addr,
		DrainTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 20, 4, time.Millisecond, trace.UDP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Responses != 20 {
		t.Errorf("responses = %d, want 20 (duplicates must not double-count)", st.Responses)
	}
	if st.Duplicates == 0 {
		t.Error("duplicates = 0, want > 0")
	}
	if st.Responses+st.Duplicates < 30 {
		t.Errorf("responses+duplicates = %d; duplicated responses went missing", st.Responses+st.Duplicates)
	}
}
