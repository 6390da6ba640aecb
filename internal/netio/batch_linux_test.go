//go:build linux && (amd64 || arm64)

package netio

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParkedRecvHoldsNoSlab parks many batches in Recv on idle sockets
// and checks that receive slabs are borrowed while a reader reads, not
// owned per socket: the free list must have made only a handful, not one
// per socket. Every socket then gets a GSO train (coalesced by GRO into
// one buffer where the kernel offloads) and a run of plain datagrams of
// another size, and every byte must arrive intact — a slab handed from
// one socket to the next must never show one socket another's data.
func TestParkedRecvHoldsNoSlab(t *testing.T) {
	const (
		sockets = 64
		recvN   = 4
		// An odd buffer size gives this test a free list of its own.
		bufSize = 64<<10 + 48
		train   = 32 // equal-size datagrams sent as one GSO run
		plain   = 5  // then this many datagrams of another size
	)
	list := slabListOf(recvN * bufSize)
	made0 := list.made.Load()

	type reader struct {
		conn *net.UDPConn
		b    *UDPBatch
		got  [][]byte // every datagram received, GRO segments split
		err  error
	}
	readers := make([]*reader, sockets)
	for i := range readers {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		b, err := NewUDPBatch(conn, 1, recvN, bufSize, false)
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = &reader{conn: conn, b: b}
	}
	var wg sync.WaitGroup
	for _, r := range readers {
		wg.Add(1)
		go func(r *reader) {
			defer wg.Done()
			for len(r.got) < train+plain {
				n, err := r.b.Recv()
				if err != nil {
					r.err = err
					return
				}
				for i := 0; i < n; i++ {
					segments(r.b, i, func(m []byte) { r.got = append(r.got, bytes.Clone(m)) })
				}
			}
		}(r)
	}
	waitParked(t, "TestParkedRecvHoldsNoSlab.func", sockets)
	if made, limit := list.made.Load()-made0, int64(runtime.GOMAXPROCS(0)+4); made > limit {
		t.Errorf("%d readers parked on idle sockets made %d slabs, want at most %d", sockets, made, limit)
	}

	payload := func(sock, k, size int) []byte {
		m := bytes.Repeat([]byte{byte(sock), byte(k)}, size/2)
		copy(m, fmt.Sprintf("s%02d-%02d", sock, k))
		return m
	}
	want := make([][][]byte, sockets)
	for i, r := range readers {
		out, err := net.DialUDP("udp", nil, r.conn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		sender, err := NewUDPBatch(out, train+plain, 1, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < train; k++ {
			want[i] = append(want[i], payload(i, k, 600))
		}
		for k := train; k < train+plain; k++ {
			want[i] = append(want[i], payload(i, k, 100+2*k))
		}
		if sent, err := sender.Send(want[i]); err != nil || sent != len(want[i]) {
			t.Fatalf("socket %d: Send = %d, %v", i, sent, err)
		}
		out.Close()
	}
	wg.Wait()
	for i, r := range readers {
		if r.err != nil {
			t.Fatalf("socket %d: Recv after %d datagrams: %v", i, len(r.got), r.err)
		}
		if len(r.got) != len(want[i]) {
			t.Fatalf("socket %d: got %d datagrams, want %d", i, len(r.got), len(want[i]))
		}
		for k := range want[i] {
			if !bytes.Equal(r.got[k], want[i][k]) {
				t.Fatalf("socket %d datagram %d: got % x..., want % x...", i, k, r.got[k][:8], want[i][k][:8])
			}
		}
	}
}

// waitParked waits until n goroutines running fn are parked in netpoll on
// an empty socket.
func waitParked(t *testing.T, fn string, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[IO wait") && strings.Contains(g, fn) {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d readers parked after 10s", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}
