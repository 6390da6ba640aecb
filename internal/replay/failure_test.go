package replay

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/trace"
)

// Failure injection: the replay engine must degrade gracefully when the
// server misbehaves — drop responses, kill connections mid-stream, or
// vanish entirely — and the controller link must surface a broken client
// rather than hanging.

// lossyUDPServer answers queries but drops every third response.
func lossyUDPServer(t *testing.T) (addr string, served *atomic.Int64) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	served = &atomic.Int64{}
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, raddr, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			i := served.Add(1)
			if i%3 == 0 {
				continue // drop
			}
			resp := append([]byte(nil), buf[:n]...)
			resp[2] |= 0x80 // QR
			_, _ = conn.WriteToUDP(resp, raddr)
		}
	}()
	return conn.LocalAddr().String(), served
}

func TestReplaySurvivesDroppedResponses(t *testing.T) {
	addr, served := lossyUDPServer(t)
	en, err := New(Config{UDPTarget: addr, DrainTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 30, 3, time.Millisecond, trace.UDP)
	done := make(chan struct{})
	var st *Stats
	go func() {
		defer close(done)
		st, err = en.Replay(context.Background(), trace.NewSliceReader(entries))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("replay hung on dropped responses")
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 30 {
		t.Errorf("sent = %d", st.Sent)
	}
	if st.Responses >= st.Sent || st.Responses == 0 {
		t.Errorf("responses = %d of %d, expected partial", st.Responses, st.Sent)
	}
	if served.Load() != 30 {
		t.Errorf("server saw %d queries", served.Load())
	}
}

// rstTCPServer accepts connections and resets them after one response.
func rstTCPServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				msg, err := authserver.ReadTCPMessage(c, new([]byte))
				if err != nil {
					return
				}
				msg[2] |= 0x80
				_ = authserver.WriteTCPMessage(c, msg)
				// Close immediately: the next query on this connection
				// hits a dead socket and must trigger a reconnect.
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestReplayReconnectsAfterServerClose(t *testing.T) {
	addr := rstTCPServer(t)
	en, err := New(Config{TCPTarget: addr, DrainTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One source, several queries spaced out so each lands after the
	// server has closed the previous connection.
	entries := makeTrace(t, 5, 1, 60*time.Millisecond, trace.TCP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 5 {
		t.Errorf("sent = %d (errors %d)", st.Sent, st.Errors)
	}
	if st.ConnsOpened < 2 {
		t.Errorf("conns opened = %d, expected reconnects", st.ConnsOpened)
	}
}

func TestReplayServerGoneCountsErrors(t *testing.T) {
	// Reserve a port, then close it: connections are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	en, err := New(Config{TCPTarget: addr, DrainTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 10, 2, 0, trace.TCP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 10 || st.Sent != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// recordConn is a controller-side link end that keeps what is written to
// it, so a test can replay any prefix of a real link stream.
type recordConn struct {
	net.Conn
	sent bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) { return c.sent.Write(p) }
func (c *recordConn) Close() error                { return nil }
func (c *recordConn) RemoteAddr() net.Addr        { return &net.TCPAddr{} }

// linkStream runs a RemoteController over entries with one client and
// returns the bytes it put on the link plus the offset at which each block
// ends (the last offset is where the footer index starts).
func linkStream(t *testing.T, entries []trace.Entry, blockEntries int) (stream []byte, blockEnds []int) {
	t.Helper()
	conn := &recordConn{}
	rc := &RemoteController{clients: []*linkClient{
		newLinkClient(conn, trace.BlockWriterOptions{BlockEntries: blockEntries}),
	}}
	if err := rc.Run(trace.NewSliceReader(entries)); err != nil {
		t.Fatal(err)
	}
	stream = conn.sent.Bytes()
	off := 9 + 8 // sync point, block-stream magic
	for n := 0; n < len(entries); n += blockEntries {
		hdr, err := trace.ParseBlockHeader(stream[off:])
		if err != nil {
			t.Fatalf("link stream block at %d: %v", off, err)
		}
		off += trace.BlockHeaderSize + int(hdr.StoredLen)
		blockEnds = append(blockEnds, off)
	}
	return stream, blockEnds
}

// serveLinkBytes plays link bytes at a client instance, closes the link,
// and returns what ServeClient made of it.
func serveLinkBytes(t *testing.T, link []byte) (*Stats, error) {
	t.Helper()
	srvAddr, _ := lossyUDPServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	en, err := New(Config{UDPTarget: srvAddr, DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		st  *Stats
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		st, err := ServeClient(ln, en)
		resCh <- result{st, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(link); err != nil {
		t.Fatal(err)
	}
	conn.Close() // the controller dies here
	select {
	case r := <-resCh:
		return r.st, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("client hung after the controller link closed")
		return nil, nil
	}
}

// TestServeClientControllerCrash cuts the controller link at every kind of
// place a dying controller can leave it. The client must replay every
// block that arrived whole, return promptly, and report the truncation —
// only a link that reached its end-of-trace marker is a finished trace.
func TestServeClientControllerCrash(t *testing.T) {
	entries := makeTrace(t, 24, 3, time.Millisecond, trace.UDP)
	stream, ends := linkStream(t, entries, 8) // three blocks of 8
	for _, c := range []struct {
		name     string
		cut      int
		sent     int64
		finished bool
	}{
		{"mid-block", ends[1] + (ends[2]-ends[1])/2, 16, false},
		{"mid-header", ends[1] + 7, 16, false},
		{"block-boundary", ends[1], 16, false},
		{"mid-sync-point", 4, -1, false},
		{"before-anything", 0, -1, false},
		{"whole-stream", len(stream), 24, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := serveLinkBytes(t, stream[:c.cut])
			if c.sent < 0 {
				if st != nil {
					t.Errorf("client reported a replay (%+v) of a link that never got to its trace", st)
				}
			} else if st == nil || st.Sent != c.sent {
				t.Errorf("client replayed %+v, want the %d entries of the whole blocks", st, c.sent)
			}
			if c.finished {
				if err != nil {
					t.Errorf("finished trace reported %v", err)
				}
			} else if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
			}
		})
	}
}

// TestServeClientRejectsDamagedLink: bytes that are not a link, and a
// block whose payload changed in flight, are errors — the damaged block's
// entries are never replayed, the whole blocks before it are.
func TestServeClientRejectsDamagedLink(t *testing.T) {
	entries := makeTrace(t, 24, 3, time.Millisecond, trace.UDP)
	stream, ends := linkStream(t, entries, 8)

	flipped := bytes.Clone(stream)
	flipped[ends[0]+trace.BlockHeaderSize+5] ^= 0x01 // inside block 2's payload
	st, err := serveLinkBytes(t, flipped)
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("flipped payload byte: err = %v, want the block's CRC mismatch", err)
	}
	if st == nil || st.Sent != 8 {
		t.Errorf("flipped payload byte: replayed %+v, want only the 8 entries of block 1", st)
	}

	st, err = serveLinkBytes(t, append([]byte{'X', 1, 2, 3, 4, 5, 6, 7, 8}, stream[9:]...))
	if err == nil || errors.Is(err, io.ErrUnexpectedEOF) || st != nil {
		t.Errorf("garbage sync point: replayed %+v, err = %v; want nothing and a format error", st, err)
	}
}

// endlessReader repeats its entries forever: a trace long enough that a
// controller can only finish with it by failing.
type endlessReader struct {
	entries []trace.Entry
	n       int
}

func (r *endlessReader) Next() (trace.Entry, error) {
	e := r.entries[r.n%len(r.entries)]
	r.n++
	return e, nil
}

// TestRemoteControllerClientDies: a client instance that goes away
// mid-stream must end the controller's run with an error naming that
// client, not hang it and not pass for a finished trace.
func TestRemoteControllerClientDies(t *testing.T) {
	healthy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	dying, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dying.Close()
	go func() { // reads everything the controller sends, as a live client would
		if conn, err := healthy.Accept(); err == nil {
			io.Copy(io.Discard, conn)
			conn.Close()
		}
	}()
	go func() { // takes the sync point and a little more, then dies
		if conn, err := dying.Accept(); err == nil {
			io.CopyN(io.Discard, conn, 64)
			conn.Close()
		}
	}()

	rc, err := DialClients(healthy.Addr().String(), dying.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	done := make(chan error, 1)
	go func() {
		done <- rc.Run(&endlessReader{entries: makeTrace(t, 512, 64, time.Microsecond, trace.UDP)})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), dying.Addr().String()) {
			t.Errorf("Run = %v, want an error naming the dead client %s", err, dying.Addr())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("controller hung on a dead client")
	}
}
