package authserver

import (
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Server runs an Engine behind live UDP, TCP, and (optionally) TLS
// listeners. It is the "real DNS server" role of the testbed: NSD in the
// paper's experiments, ours here. The TCP path implements RFC 1035
// two-octet framing, persistent connections with a configurable idle
// timeout (the paper sweeps 5–40 s), and pipelined queries.
type Server struct {
	Engine *Engine

	// IdleTimeout closes TCP/TLS connections idle for this long. Zero
	// means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// TLSConfig enables the TLS listener when non-nil.
	TLSConfig *tls.Config
	// UDPWorkers sets the UDP worker count (default 4). Every worker runs
	// the batch loop in serve_batch.go over its own netio.UDPBatch and
	// engine shard.
	UDPWorkers int
	// ReusePort opens one SO_REUSEPORT UDP socket per worker so the
	// kernel fans incoming packets out across workers instead of all
	// workers contending on one socket's receive queue. Silently falls
	// back to a single shared socket on platforms without SO_REUSEPORT.
	ReusePort bool
	// Batch is ignored: the batch loop is the only UDP loop, on every
	// platform (netio's portable fallback presents it as batch-of-1).
	//
	// Deprecated: the field survives only because internal/benchkit/sut.go
	// sets it and a change to the benchmark's own files must not ride
	// along with a change to what it measures. The next benchmark PR
	// deletes that line and this field together (ROADMAP item 2).
	Batch bool
	// BatchSize is the per-worker receive batch width (default
	// DefaultUDPBatchSize, clamped to netio.MaxBatch). A width of 1 is one
	// datagram per system call.
	BatchSize int

	udpConns []*net.UDPConn
	tcpLn    net.Listener
	tlsLn    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// connection gauges for experiment sampling
	tcpOpen  atomic.Int64
	tcpTotal atomic.Int64
}

// DefaultIdleTimeout matches the 20 s suggested by prior work and used as
// the paper's reference point.
const DefaultIdleTimeout = 20 * time.Second

// Start begins serving on the given addresses ("127.0.0.1:0" forms are
// accepted; pass empty strings to skip a listener). It returns once all
// listeners are bound.
func (s *Server) Start(udpAddr, tcpAddr, tlsAddr string) error {
	if s.Engine == nil {
		return errors.New("authserver: Server.Engine is nil")
	}
	if s.IdleTimeout <= 0 {
		s.IdleTimeout = DefaultIdleTimeout
	}
	if s.UDPWorkers <= 0 {
		s.UDPWorkers = 4
	}
	s.conns = make(map[net.Conn]struct{})

	if udpAddr != "" {
		if err := s.listenUDP(udpAddr); err != nil {
			return err
		}
		if err := s.startUDPBatch(); err != nil {
			s.Close()
			return err
		}
	}
	if tcpAddr != "" {
		ln, err := net.Listen("tcp", tcpAddr)
		if err != nil {
			s.Close()
			return err
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptLoop(ln, TCP)
	}
	if tlsAddr != "" {
		if s.TLSConfig == nil {
			s.Close()
			return errors.New("authserver: TLS listener requested without TLSConfig")
		}
		ln, err := tls.Listen("tcp", tlsAddr, s.TLSConfig)
		if err != nil {
			s.Close()
			return err
		}
		s.tlsLn = ln
		s.wg.Add(1)
		go s.acceptLoop(ln, TLS)
	}
	return nil
}

// listenUDP binds the UDP socket(s): one socket shared by all workers,
// or — with ReusePort on a supporting platform — one per worker, all
// bound to the same address so the kernel distributes load.
func (s *Server) listenUDP(udpAddr string) error {
	addr, err := net.ResolveUDPAddr("udp", udpAddr)
	if err != nil {
		return err
	}
	sockets := 1
	if s.ReusePort && reusePortSupported && s.UDPWorkers > 1 {
		sockets = s.UDPWorkers
	}
	if sockets == 1 {
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			return err
		}
		s.udpConns = []*net.UDPConn{conn}
		return nil
	}
	lc := net.ListenConfig{Control: reusePortControl}
	bind := addr.String()
	for i := 0; i < sockets; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", bind)
		if err != nil {
			for _, c := range s.udpConns {
				c.Close()
			}
			s.udpConns = nil
			return err
		}
		conn := pc.(*net.UDPConn)
		s.udpConns = append(s.udpConns, conn)
		if i == 0 {
			// A ":0" request resolves on the first bind; the remaining
			// sockets must share that concrete port.
			bind = conn.LocalAddr().String()
		}
	}
	return nil
}

// UDPAddr returns the bound UDP address, or nil.
func (s *Server) UDPAddr() *net.UDPAddr {
	if len(s.udpConns) == 0 {
		return nil
	}
	return s.udpConns[0].LocalAddr().(*net.UDPAddr)
}

// TCPAddr returns the bound TCP address, or nil.
func (s *Server) TCPAddr() *net.TCPAddr {
	if s.tcpLn == nil {
		return nil
	}
	return s.tcpLn.Addr().(*net.TCPAddr)
}

// TLSAddr returns the bound TLS address, or nil.
func (s *Server) TLSAddr() *net.TCPAddr {
	if s.tlsLn == nil {
		return nil
	}
	return s.tlsLn.Addr().(*net.TCPAddr)
}

// OpenTCPConns returns the number of currently open TCP/TLS connections.
func (s *Server) OpenTCPConns() int64 { return s.tcpOpen.Load() }

// TotalTCPConns returns the number of TCP/TLS connections ever accepted.
func (s *Server) TotalTCPConns() int64 { return s.tcpTotal.Load() }

// Close shuts down all listeners and open connections and waits for the
// serving goroutines to finish.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for _, c := range s.udpConns {
		c.Close()
	}
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	if s.tlsLn != nil {
		s.tlsLn.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop(ln net.Listener, transport Transport) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.tcpOpen.Add(1)
		s.tcpTotal.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn, transport)
	}
}

func (s *Server) serveConn(conn net.Conn, transport Transport) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.tcpOpen.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	src := remoteAddr(conn)
	// Per-connection reusable buffers: the engine never retains the query
	// bytes, so each message overwrites the last, and each framed
	// response the one before it.
	var rbuf, wbuf []byte
	for {
		_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		query, err := ReadTCPMessage(conn, &rbuf)
		if err != nil {
			return // idle timeout, EOF, or garbage: drop the connection
		}
		if wbuf, err = s.Engine.appendFramed(wbuf[:0], query, src, transport); err != nil {
			return
		}
		// One Write per message, so a response is never split across two
		// writes at this layer.
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}

// appendFramed answers one stream query and appends the response to dst
// behind its RFC 1035 §4.2.2 two-octet length, which dnswire.Pack's
// MaxMessageSize guarantees it fits. A connection borrows a shard per
// query rather than owning one: a thousand idle connections should not
// each hold a response cache.
//
//ldlint:noalloc
func (e *Engine) appendFramed(dst, query []byte, src netip.Addr, transport Transport) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0)
	dst, err := e.respondBorrowed(dst, query, src, transport)
	if err != nil {
		return dst[:base], err
	}
	n := len(dst) - base - 2
	dst[base], dst[base+1] = byte(n>>8), byte(n)
	return dst, nil
}

// remoteAddr returns the peer's address as views are keyed: unmapped.
func remoteAddr(conn net.Conn) netip.Addr {
	if a, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		return a.AddrPort().Addr().Unmap()
	}
	return netip.Addr{}
}

// ReadTCPMessage reads one RFC 1035 §4.2.2 length-prefixed DNS message
// into *buf, growing it as needed; the returned slice aliases *buf and is
// valid until the next call with the same buffer. A caller that keeps
// messages passes a fresh (nil) buffer per call.
func ReadTCPMessage(r io.Reader, buf *[]byte) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(lenBuf[:]))
	if n == 0 {
		return nil, errors.New("authserver: zero-length TCP message")
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	msg := (*buf)[:n]
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// framePool recycles TCP framing buffers so writing a response does not
// allocate a fresh 2+len(msg) slice per message.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// WriteTCPMessage writes one length-prefixed DNS message in a single
// Write call, so a message is never split across two writes at this layer
// (the analogue of disabling Nagle-sensitive write patterns). The frame
// is assembled in a pooled buffer, not a per-message allocation.
func WriteTCPMessage(w io.Writer, msg []byte) error {
	if len(msg) > 0xFFFF {
		//ldlint:ignore noallocprop cold error constructor: fires only for >64KiB messages, which are unframeable and rejected
		return errFrameTooLarge(len(msg))
	}
	bp := framePool.Get().(*[]byte)
	//ldlint:ignore noallocprop pooled amortized growth: buf extends the framePool backing array and is stored back via *bp = buf[:0] below
	buf := append((*bp)[:0], byte(len(msg)>>8), byte(len(msg)))
	buf = append(buf, msg...)
	_, err := w.Write(buf)
	*bp = buf[:0]
	framePool.Put(bp)
	return err
}

// errFrameTooLarge builds the oversized-message error. Kept out of
// WriteTCPMessage so the fmt machinery stays off the framing path the
// replay querier and engine share.
func errFrameTooLarge(n int) error {
	return fmt.Errorf("authserver: message too large for TCP framing: %d", n)
}
