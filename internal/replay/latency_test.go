package replay

import (
	"context"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
)

// Engine-level tests of what the pending table is for: every response is
// matched to its own query, so ldplayer_rtt_ns holds one exact sample per
// response whatever is pipelined, retransmitted or reusing an ID.

// rttHist instruments en and returns a reader of its ldplayer_rtt_ns.
func rttHist(t *testing.T, en *Engine) func() *obs.HistogramSnapshot {
	t.Helper()
	reg := obs.NewRegistry()
	en.Instrument(reg)
	return func() *obs.HistogramSnapshot {
		s, ok := reg.Find("ldplayer_rtt_ns", "")
		if !ok {
			t.Fatal("ldplayer_rtt_ns is not registered")
		}
		return s.Hist
	}
}

// atLeast reports whether a histogram quantile shows a sample of at least
// d: quantiles are accurate to a bucket, so the bar is d's bucket floor.
func atLeast(q float64, d time.Duration) bool {
	lo, _ := obs.BucketBoundsFor(int64(d))
	return q >= float64(lo)
}

// TestRandomIDsNoFalseDuplicates replays one source's queries under random
// 16-bit DNS IDs, fire-and-forget. IDs come round again within a couple
// of thousand queries; each time the send must clear the ID's answered mark,
// or the new query's answer is thrown away as a duplicate.
func TestRandomIDsNoFalseDuplicates(t *testing.T) {
	addr, _, _ := scriptedUDPServer(t, func(int64) int { return 0 })
	en, err := New(Config{UDPTarget: addr, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	entries := makeTrace(t, n, 1, 200*time.Microsecond, trace.UDP)
	// A repeat must exist but not inside the in-flight window, where the
	// newer query would rightly supersede the older: keep 1024 queries
	// (200 ms) apart.
	rng := rand.New(rand.NewSource(1))
	repeats, lastUse := 0, map[uint16]int{}
	for i := range entries {
		id := uint16(rng.Intn(1 << 16))
		for prev, used := lastUse[id]; used && i-prev < 1024; prev, used = lastUse[id] {
			id = uint16(rng.Intn(1 << 16))
		}
		if _, used := lastUse[id]; used {
			repeats++
		}
		lastUse[id] = i
		entries[i].Message[0], entries[i].Message[1] = byte(id>>8), byte(id)
	}
	if repeats < 30 {
		t.Fatalf("only %d of %d queries reuse an ID; the trace does not test reuse", repeats, n)
	}
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != n || st.Responses != st.Sent || st.Duplicates != 0 {
		t.Errorf("sent %d, responses %d, duplicates %d; want %d answered and no duplicates (%d IDs reused)",
			st.Sent, st.Responses, st.Duplicates, n, repeats)
	}
}

// heldAnswer is how long the pipelining servers sit on the first query's
// answer while they answer the second at once.
const heldAnswer = 60 * time.Millisecond

// holdFirstUDP answers the second query it receives immediately and the
// first one only after heldAnswer.
func holdFirstUDP(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		var held []byte
		buf := make([]byte, 64*1024)
		for i := 0; ; i++ {
			n, raddr, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			resp := append([]byte(nil), buf[:n]...)
			resp[2] |= 0x80 // QR
			if i == 0 {
				held = resp
				continue
			}
			_, _ = conn.WriteToUDP(resp, raddr)
			if held != nil {
				time.Sleep(heldAnswer)
				_, _ = conn.WriteToUDP(held, raddr)
				held = nil
			}
		}
	}()
	return conn.LocalAddr().String()
}

// holdFirstTCP is holdFirstUDP on one stream connection: responses come
// back out of order, as RFC 7766 pipelining allows.
func holdFirstTCP(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		first, err := authserver.ReadTCPMessage(c, new([]byte))
		if err != nil {
			return
		}
		second, err := authserver.ReadTCPMessage(c, new([]byte))
		if err != nil {
			return
		}
		first[2] |= 0x80
		second[2] |= 0x80
		_ = authserver.WriteTCPMessage(c, second)
		time.Sleep(heldAnswer)
		_ = authserver.WriteTCPMessage(c, first)
		_, _ = authserver.ReadTCPMessage(c, new([]byte)) // until the client hangs up
	}()
	return ln.Addr().String()
}

// TestPipelinedQueriesEachGetTheirLatency puts two queries from one source
// in flight on one socket, and the server answers them out of order, the
// first one late. Both responses must yield a sample — the late one its
// own, first send to late answer, not whatever was sent last.
func TestPipelinedQueriesEachGetTheirLatency(t *testing.T) {
	for _, tc := range []struct {
		proto  trace.Protocol
		server func(*testing.T) string
	}{
		{trace.UDP, holdFirstUDP},
		{trace.TCP, holdFirstTCP},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			addr := tc.server(t)
			en, err := New(Config{UDPTarget: addr, TCPTarget: addr, DrainTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			rtt := rttHist(t, en)
			entries := makeTrace(t, 2, 1, 0, tc.proto)
			st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
			if err != nil {
				t.Fatal(err)
			}
			h := rtt()
			if st.Responses != 2 || h.Count != st.Responses {
				t.Fatalf("%d responses, %d latency samples, want 2 and 2", st.Responses, h.Count)
			}
			if fast, held := h.Quantile(0), h.Quantile(1); atLeast(fast, heldAnswer) || !atLeast(held, heldAnswer) {
				t.Errorf("samples span %v..%v; want the prompt answer under and the held one over %v",
					time.Duration(fast), time.Duration(held), heldAnswer)
			}
			if st.LatencyCount != st.Responses {
				t.Errorf("Stats.LatencyCount = %d with %d responses", st.LatencyCount, st.Responses)
			}
		})
	}
}

// TestRetransmittedQueryLatencyFromFirstSend drops every query's first
// transmission. The answer to the retransmission is the query's answer:
// its latency runs from the first send, so no sample can be shorter than
// the retry timeout.
func TestRetransmittedQueryLatencyFromFirstSend(t *testing.T) {
	const retryTimeout = 40 * time.Millisecond
	en, err := New(Config{
		UDPTarget:       dropFirstUDPServer(t),
		UDPRetries:      2,
		UDPRetryTimeout: retryTimeout,
		DrainTimeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rtt := rttHist(t, en)
	entries := makeTrace(t, 12, 3, time.Millisecond, trace.UDP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	h := rtt()
	if st.Responses != 12 || h.Count != 12 {
		t.Fatalf("%d responses, %d latency samples, want 12 and 12", st.Responses, h.Count)
	}
	if shortest := h.Quantile(0); !atLeast(shortest, retryTimeout) {
		t.Errorf("shortest latency %v is under the %v retry timeout: stamped at the retransmission, not the first send",
			time.Duration(shortest), retryTimeout)
	}
}

// TestBlackholedSourceStaysBounded sends more queries than there are DNS
// IDs from one source into a socket nobody reads. The source's table
// cannot hold more than the ID space: the in-flight gauge stops there,
// the overflow is unanswered as it is superseded, and at the end every
// sent query is unanswered — none lost from the books, none counted twice.
func TestBlackholedSourceStaysBounded(t *testing.T) {
	hole, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hole.Close() })
	const n = 1<<16 + 4000
	reg := obs.NewRegistry()
	var sends, peak atomic.Int64
	en, err := New(Config{
		UDPTarget:    hole.LocalAddr().String(),
		FastMode:     true,
		DrainTimeout: 20 * time.Millisecond,
		OnSend: func(*trace.Entry, time.Time, time.Duration) {
			if sends.Add(1)%1000 != 0 {
				return
			}
			if s, ok := reg.Find("ldplayer_in_flight", ""); ok && s.Value > peak.Load() {
				peak.Store(s.Value)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Instrument(reg)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(makeTrace(t, n, 1, 0, trace.UDP)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != n || st.Unanswered != st.Sent || st.Responses+st.Giveups != 0 {
		t.Errorf("sent %d, unanswered %d, responses %d, giveups %d; want all %d unanswered",
			st.Sent, st.Unanswered, st.Responses, st.Giveups, n)
	}
	if p := peak.Load(); p == 0 || p > 1<<16 {
		t.Errorf("in-flight gauge peaked at %d for one source; want it bounded by the %d DNS IDs", p, 1<<16)
	}
}
