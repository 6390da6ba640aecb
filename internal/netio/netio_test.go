package netio

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"
)

// segments invokes fn for every datagram in received buffer i, walking
// GRO-coalesced buffers at their segment stride.
func segments(b *UDPBatch, i int, fn func(m []byte)) int {
	m := b.Msg(i)
	seg := b.SegSize(i)
	if seg <= 0 || seg >= len(m) {
		fn(m)
		return 1
	}
	n := 0
	for off := 0; off < len(m); off += seg {
		end := off + seg
		if end > len(m) {
			end = len(m)
		}
		fn(m[off:end])
		n++
	}
	return n
}

// echoPeer runs the server side of the API until the test ends: every
// datagram received goes back to its sender, first byte flipped to 'M',
// through Recv → Stage (one reply per GRO segment, aliasing the receive
// buffer) → SendStaged. The batch is 8 wide, so one coalesced buffer
// stages more replies than SendStaged has headers for.
func echoPeer(t *testing.T, noOffload bool) *net.UDPAddr {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewUDPBatchConfig(conn, BatchConfig{SendMsgs: 8, RecvMsgs: 8, BufSize: 64 << 10, Addrs: true, NoOffload: noOffload})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			n, err := b.Recv()
			if err != nil {
				return // closed
			}
			staged := 0
			for i := 0; i < n; i++ {
				staged += segments(b, i, func(m []byte) { m[0] = 'M'; b.Stage(i, m) })
			}
			if sent, err := b.SendStaged(); err != nil || sent != staged {
				t.Errorf("SendStaged = %d, %v; want %d", sent, err, staged)
				return
			}
		}
	}()
	t.Cleanup(func() { conn.Close(); <-done })
	return conn.LocalAddr().(*net.UDPAddr)
}

// TestBatchStagedReplies is the offload matrix: with GSO/GRO on and off,
// a peer answering through Recv → Stage → SendStaged must return every
// datagram exactly once, whole, and to the socket that sent it — for a
// run of equal-size datagrams from one peer (the GSO-coalescing case),
// for mixed sizes (a reply that differs from its neighbours must leave
// the run, never be clipped or padded to the segment size), and for two
// peers interleaved in one receive batch. On builds without sendmmsg the
// same cases run through the portable one-datagram fallback.
func TestBatchStagedReplies(t *testing.T) {
	const perPeer, chunk = 40, 8
	for _, sc := range []struct {
		name  string
		peers int
		size  func(i int) int
	}{
		{"equal-size same-peer run", 1, func(int) int { return 16 }},
		{"mixed sizes", 1, func(i int) int { return 16 + i%3*7 }},
		{"two peers", 2, func(int) int { return 16 }},
	} {
		for _, noOffload := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/NoOffload=%v", sc.name, noOffload), func(t *testing.T) {
				addr := echoPeer(t, noOffload)
				clients := make([]*UDPBatch, sc.peers)
				msgs := make([][][]byte, sc.peers)
				for p := range clients {
					conn, err := net.DialUDP("udp", nil, addr)
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					clients[p], err = NewUDPBatchConfig(conn, BatchConfig{SendMsgs: chunk, RecvMsgs: 32, BufSize: 4096, NoOffload: noOffload})
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < perPeer; i++ {
						m := bytes.Repeat([]byte{'.'}, sc.size(i))
						copy(m, fmt.Sprintf("m%d-%03d", p, i))
						msgs[p] = append(msgs[p], m)
					}
				}
				// Peers take turns a chunk at a time, so the echo peer's
				// receive batches interleave them.
				for off := 0; off < perPeer; off += chunk {
					for p, c := range clients {
						if sent, err := c.Send(msgs[p][off : off+chunk]); err != nil || sent != chunk {
							t.Fatalf("peer %d Send = %d, %v", p, sent, err)
						}
					}
				}
				for p, c := range clients {
					got := map[string]int{}
					for total := 0; total < perPeer; {
						n, err := c.Recv()
						if err != nil {
							t.Fatalf("peer %d recv after %d: %v", p, total, err)
						}
						for i := 0; i < n; i++ {
							total += segments(c, i, func(m []byte) { got[string(m)]++ })
						}
					}
					for _, m := range msgs[p] {
						want := "M" + string(m[1:])
						if got[want] != 1 {
							t.Errorf("peer %d: reply %q seen %d times (got %v)", p, want, got[want], got)
						}
					}
				}
			})
		}
	}
}

// TestBatchSendOversizedBatch sends more messages than the batch capacity
// in one call; Send must loop internally and submit them all.
func TestBatchSendOversizedBatch(t *testing.T) {
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sinkConn.Close()

	clientConn, err := net.DialUDP("udp", nil, sinkConn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer clientConn.Close()
	client, err := NewUDPBatch(clientConn, 4, 4, 512, false)
	if err != nil {
		t.Fatal(err)
	}

	msgs := make([][]byte, 11)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 0xAB}
	}
	sent, err := client.Send(msgs)
	if err != nil || sent != len(msgs) {
		t.Fatalf("Send = %d, %v", sent, err)
	}
	buf := make([]byte, 512)
	seen := make(map[byte]bool)
	sinkConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(seen) < len(msgs) {
		n, _, err := sinkConn.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("sink read after %d: %v", len(seen), err)
		}
		if n != 2 || !bytes.Equal(buf[1:2], []byte{0xAB}) {
			t.Fatalf("bad datagram % x", buf[:n])
		}
		seen[buf[0]] = true
	}
}
