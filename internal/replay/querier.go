package replay

import (
	"context"
	"crypto/tls"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/netio"
	"ldplayer/internal/qlog"
	"ldplayer/internal/trace"
)

// UDP socket I/O geometry: sends are grouped per socket and submitted
// through sendmmsg in chunks of sendBatchCap (equal-size runs coalesce
// further into GSO super-datagrams on Linux); the reader drains up to
// recvBatchCap buffers per recvmmsg, each sized to hold a maximally
// GRO-coalesced response train (64 segments of up to ~1 KiB).
//
// Every emulated source keeps its socket open through the idle window,
// so what a socket holds while nobody reads it is the per-source cost.
// The recvBatchCap×recvBufSize = 256 KiB receive slab is not part of it:
// on Linux a reader borrows the slab from netio's free list when its
// socket turns readable and hands it back before it parks again, so the
// slabs in use number the readers awake at once, not the sources. What
// each source does own is its send headers (~14 KiB at sendBatchCap
// 128), its parked reader's stack and its pending table; DESIGN.md has
// the per-source budget.
const (
	sendBatchCap = 128
	recvBatchCap = 4
	recvBufSize  = 64 * 1024
)

// querier owns sockets and transmits its share of the sources. Timing no
// longer lives here: entries arrive in pre-paced batches (from the
// distributor's timing wheel, or as fast as possible in fast mode), and
// the querier's job is to turn a batch into as few syscalls as it can.
// Same-source queries reuse the same socket while it is open; new sources
// open new sockets; idle TCP/TLS connections close after the configured
// timeout — the §2.6 connection-reuse emulation.
type querier struct {
	en    *Engine
	name  string
	wheel *wheel
	in    chan []trace.Entry

	sp atomic.Pointer[syncPoint]

	mu   sync.Mutex
	udp  map[netip.Addr]*udpSocket
	conn map[streamKey]*streamConn

	// dirty lists sockets holding queued messages for the batch being
	// sent; reused across batches.
	dirty []*udpSocket

	// io tracks socket reader and idle goroutines; they exit when
	// closeSockets runs after the drain grace period.
	io sync.WaitGroup

	// qlog is this querier's SPSC telemetry producer (nil when off).
	// SPSC holds because a querier's sends run on exactly one goroutine
	// per run: the wheel goroutine (paced) or the querier's own (fast).
	qlog *qlog.Producer
}

// streamKey identifies an emulated TCP or TLS query source. The original
// source address is the key: its queries share the connection, per the
// paper.
type streamKey struct {
	addr  netip.Addr
	proto trace.Protocol
}

func newQuerier(en *Engine, name string) *querier {
	q := &querier{
		en:   en,
		name: name,
		// Shallow queue: 4 batches of up to defaultMaxBatch is ample
		// pipelining, and the bound keeps the total in-flight batch
		// population within the recycling pool's capacity.
		in:   make(chan []trace.Entry, 4),
		udp:  make(map[netip.Addr]*udpSocket),
		conn: make(map[streamKey]*streamConn),
	}
	if en.cfg.Qlog != nil {
		q.qlog = en.cfg.Qlog.Producer()
	}
	return q
}

func (q *querier) setSync(sp *syncPoint) { q.sp.Store(sp) }

// run consumes entry batches until the channel closes. A cancelled
// context drains remaining batches without sending.
func (q *querier) run(ctx context.Context) {
	for b := range q.in {
		if ctx.Err() == nil {
			q.sendBatch(b)
		}
		putBatch(b)
	}
}

// sendBatch transmits one batch: UDP entries are grouped by socket and
// submitted via batched sends; stream entries go out inline. Per-socket
// grouping keeps same-source queries in order (a source always maps to
// one socket).
//
//ldlint:noalloc
func (q *querier) sendBatch(batch []trace.Entry) {
	for i := range batch {
		e := &batch[i]
		switch e.Protocol {
		case trace.UDP:
			//ldlint:ignore noallocprop lazy per-source socket setup: a first-seen source dials and wires its reader once; steady state is a map hit
			sock, err := q.getUDP(e.Src.Addr())
			if err != nil {
				q.fail(e, err)
				continue
			}
			if len(sock.out) == 0 {
				q.dirty = append(q.dirty, sock)
			}
			sock.out = append(sock.out, e.Message)
			sock.outIdx = append(sock.outIdx, i)
		case trace.TCP, trace.TLS:
			if err := q.sendStream(e); err != nil {
				q.fail(e, err)
			}
		}
	}
	for _, sock := range q.dirty {
		// Record every send before the syscall that performs it: on
		// loopback a response can reach the socket's reader before
		// sendmmsg returns, and it must find its query in the table, stamped,
		// and its OnSend delivered.
		at := q.en.clock.Now()
		seq := sock.pend.send(at, sock.out...)
		for k, idx := range sock.outIdx {
			e := &batch[idx]
			q.accountSend(e, at)
			if q.en.cfg.UDPRetries > 0 {
				q.wheel.scheduleRetrans(q.en.cfg.UDPRetryTimeout, q, sock, msgID(e.Message), seq+uint32(k))
			}
		}
		if h := q.en.batchSizeHist.Load(); h != nil {
			h.Record(int64(len(sock.out)))
		}
		n, err := sock.batch.Send(sock.out)
		// Send guarantees n < len(out) implies err != nil: take the unsent
		// tail back. Its OnSend and qlog events have gone out already;
		// OnError follows them.
		for k := n; k < len(sock.outIdx); k++ {
			e := &batch[sock.outIdx[k]]
			if sock.pend.unsend(msgID(e.Message), seq+uint32(k)) {
				q.en.sent.Add(-1)
			}
			q.fail(e, err)
		}
		sock.out = sock.out[:0]
		sock.outIdx = sock.outIdx[:0]
	}
	q.dirty = q.dirty[:0]
}

// accountSend records a transmission about to be made: counters, the
// scheduling-error sample, the OnSend callback and the qlog event. It
// runs before the syscall, so at — and with it the scheduling error — is
// when the query was handed to the kernel, not when the kernel was done
// with the batch it rode in.
//
//ldlint:noalloc
func (q *querier) accountSend(e *trace.Entry, at time.Time) {
	q.en.sent.Add(1)
	var schedErr time.Duration
	if sp := q.sp.Load(); sp != nil {
		schedErr = at.Sub(sp.realStart) - e.Time.Sub(sp.traceStart)
		if h := q.en.schedErrHist.Load(); h != nil {
			h.Record(int64(schedErr))
		}
	}
	if q.en.cfg.OnSend != nil {
		q.en.cfg.OnSend(e, at, schedErr)
	}
	if q.qlog != nil {
		if ev := q.qlog.Reserve(); ev != nil {
			fillSendEvent(ev, e, at)
			q.qlog.Commit()
		}
	}
}

// fillSendEvent records one transmitted query: the send timestamp, the
// emulated source (so a round-tripped capture preserves source
// stickiness), and the question decoded from the query wire. Latency is
// unknowable at send time.
//
//ldlint:noalloc
func fillSendEvent(ev *qlog.Event, e *trace.Entry, at time.Time) {
	ev.Time = at.UnixNano()
	ev.Latency = -1
	ev.Peer = e.Src.Addr()
	ev.View = ""
	ev.ID = msgID(e.Message)
	ev.QType, ev.QClass, ev.QNameLen = 0, 0, 0
	if qlen := qlog.WireQNameLen(e.Message); qlen > 0 && qlen <= len(ev.QName) {
		ev.QNameLen = uint8(copy(ev.QName[:], e.Message[12:12+qlen]))
		ev.QType = uint16(e.Message[12+qlen])<<8 | uint16(e.Message[12+qlen+1])
		ev.QClass = uint16(e.Message[12+qlen+2])<<8 | uint16(e.Message[12+qlen+3])
	}
	ev.Rcode = 0
	ev.Transport = uint8(e.Protocol)
	ev.Flags = qlog.FlagClientSend
}

func (q *querier) fail(e *trace.Entry, err error) {
	q.en.errorsCount.Add(1)
	if q.en.cfg.OnError != nil {
		q.en.cfg.OnError(e, err)
	}
}

// udpSocket is one emulated UDP source.
type udpSocket struct {
	conn  *net.UDPConn
	batch *netio.UDPBatch
	// pend is the socket's queries in flight: what a retry deadline
	// re-sends and what a response is a fresh answer to, a duplicate of,
	// or a stray beside.
	pend pendTable

	// out and outIdx queue this socket's share of the batch being sent;
	// owned by the querier goroutine.
	out    [][]byte
	outIdx []int
}

// getUDP returns the socket for src, opening (and wiring a batched
// reader to) a new one for a first-seen source.
func (q *querier) getUDP(src netip.Addr) (*udpSocket, error) {
	q.mu.Lock()
	sock := q.udp[src]
	q.mu.Unlock()
	if sock != nil {
		return sock, nil
	}
	if q.en.udpAddr == nil {
		return nil, noTargetErrs[trace.UDP]
	}
	conn, err := net.DialUDP("udp", nil, q.en.udpAddr)
	if err != nil {
		return nil, err
	}
	batch, err := netio.NewUDPBatch(conn, sendBatchCap, recvBatchCap, recvBufSize, false)
	if err != nil {
		conn.Close()
		return nil, err
	}
	sock = &udpSocket{conn: conn, batch: batch}
	sock.pend.init(&q.en.pend)
	q.mu.Lock()
	// Re-check under the lock; a racing send for the same source wins.
	if existing := q.udp[src]; existing != nil {
		q.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	q.udp[src] = sock
	q.mu.Unlock()
	q.en.connsOpened.Add(1)
	q.io.Add(1)
	go q.readUDP(sock)
	return sock, nil
}

// retransmitUDP fires when a retry deadline expires: re-send a query
// still in flight with a doubled timeout, or count it given up once the
// budget is spent. Stale deadlines (answered, superseded, or closed since
// arming) no-op.
//
//ldlint:noalloc
func (q *querier) retransmitUDP(sock *udpSocket, id uint16, seq uint32) {
	budget := int32(q.en.cfg.UDPRetries)
	wire, attempt, live := sock.pend.retry(id, seq, budget)
	if !live {
		return
	}
	if attempt > budget {
		q.en.giveups.Add(1)
		return
	}
	if _, err := sock.conn.Write(wire); err != nil {
		return // socket is closing; its table's close covers the query
	}
	q.en.udpRetransmits.Add(1)
	// Exponential backoff: timeout doubles with each retransmission.
	q.wheel.scheduleRetrans(q.en.cfg.UDPRetryTimeout<<attempt, q, sock, id, seq)
}

// readUDP drains responses in batches until the socket closes. A
// GRO-coalesced buffer holds several responses back to back at a fixed
// segment stride (the last possibly shorter); each segment settles
// independently, all at the time the batch came out of the kernel.
func (q *querier) readUDP(sock *udpSocket) {
	defer q.io.Done()
	for {
		n, err := sock.batch.Recv()
		if err != nil {
			return
		}
		now := q.en.clock.Now()
		for i := 0; i < n; i++ {
			buf := sock.batch.Msg(i)
			seg := sock.batch.SegSize(i)
			if seg <= 0 || seg >= len(buf) {
				q.settleResponse(&sock.pend, buf, now)
				continue
			}
			for off := 0; off < len(buf); off += seg {
				end := off + seg
				if end > len(buf) {
					end = len(buf)
				}
				q.settleResponse(&sock.pend, buf[off:end], now)
			}
		}
	}
}

// settleResponse accounts one response received at now on the socket or
// connection whose table is pend. Only a fresh answer is a response: it
// alone yields a latency sample and reaches OnResponse.
//
//ldlint:noalloc
func (q *querier) settleResponse(pend *pendTable, msg []byte, now time.Time) {
	outcome, latency := pendStray, time.Duration(0)
	if len(msg) >= 2 {
		outcome, latency = pend.settle(msgID(msg), now)
	}
	switch outcome {
	case pendDuplicate:
		q.en.dupResponses.Add(1)
	case pendStray:
		q.en.strays.Add(1)
	default:
		q.en.responses.Add(1)
		q.en.latency.Load().Record(int64(latency))
		if q.en.cfg.OnResponse != nil {
			q.en.cfg.OnResponse(msg, now)
		}
	}
}

// streamConn is one reusable TCP or TLS connection for a source.
type streamConn struct {
	mu       sync.Mutex
	conn     net.Conn
	lastUsed time.Time
	closed   bool
	done     chan struct{}
	// pend is the connection's queries in flight; sends file into it under
	// mu, so closing the connection and taking back a failed write cannot
	// both account for one query.
	pend pendTable
}

// sendStream writes e to its source's connection, reconnecting up to
// StreamAttempts times. The send is recorded once, before the first write
// (a response can come back before Write returns) and after the
// connection exists, so connection set-up is not in the send stamp; every
// attempt files the query under that first stamp. A query no attempt
// delivered is taken back and returned as an error.
func (q *querier) sendStream(e *trace.Entry) error {
	target := q.en.cfg.TCPTarget
	if e.Protocol == trace.TLS {
		target = q.en.cfg.TLSTarget
	}
	if target == "" {
		return noTargetErrs[e.Protocol]
	}
	key := streamKey{addr: e.Src.Addr(), proto: e.Protocol}

	var err error = errConnBroken{}
	var first time.Time
	for attempt := 0; attempt < q.en.cfg.StreamAttempts; attempt++ {
		//ldlint:ignore noallocprop lazy per-stream connection setup: the dial path allocates once per stream, then every entry reuses it
		sc, derr := q.getStream(key, e.Protocol, target)
		if derr != nil {
			err = derr
			break
		}
		now := q.en.clock.Now()
		if first.IsZero() {
			first = now
			q.accountSend(e, first)
		}
		sc.mu.Lock()
		if sc.closed {
			sc.mu.Unlock()
			q.dropStream(key, sc)
			q.en.retries.Add(1)
			continue // reconnect once
		}
		sc.lastUsed = now
		seq := sc.pend.send(first, e.Message)
		werr := authserver.WriteTCPMessage(sc.conn, e.Message)
		tookBack := werr != nil && sc.pend.unsend(msgID(e.Message), seq)
		sc.mu.Unlock()
		if werr == nil {
			return nil
		}
		q.dropStream(key, sc)
		q.en.retries.Add(1)
		if !tookBack {
			// Out of the table some other way while the write was failing
			// (a response under its ID): accounted for there, not sent again.
			return nil
		}
	}
	if !first.IsZero() {
		q.en.sent.Add(-1)
	}
	return err
}

func (q *querier) getStream(key streamKey, proto trace.Protocol, target string) (*streamConn, error) {
	q.mu.Lock()
	sc := q.conn[key]
	q.mu.Unlock()
	if sc != nil {
		return sc, nil
	}
	var conn net.Conn
	var err error
	if proto == trace.TLS {
		conn, err = tls.Dial("tcp", target, q.en.cfg.TLSConfig)
	} else {
		conn, err = net.Dial("tcp", target)
	}
	if err != nil {
		return nil, err
	}
	sc = &streamConn{conn: conn, lastUsed: q.en.clock.Now(), done: make(chan struct{})}
	sc.pend.init(&q.en.pend)
	q.mu.Lock()
	if existing := q.conn[key]; existing != nil {
		q.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	q.conn[key] = sc
	q.mu.Unlock()
	q.en.connsOpened.Add(1)
	q.io.Add(1)
	go q.readStream(key, sc)
	q.io.Add(1)
	go q.idleCloser(key, sc)
	return sc, nil
}

func (q *querier) dropStream(key streamKey, sc *streamConn) {
	sc.mu.Lock()
	if !sc.closed {
		sc.closed = true
		sc.conn.Close()
		close(sc.done)
		sc.pend.close()
	}
	sc.mu.Unlock()
	q.mu.Lock()
	if q.conn[key] == sc {
		delete(q.conn, key)
	}
	q.mu.Unlock()
}

func (q *querier) readStream(key streamKey, sc *streamConn) {
	defer q.io.Done()
	var buf []byte // every message of the connection is read into this
	for {
		msg, err := authserver.ReadTCPMessage(sc.conn, &buf)
		if err != nil {
			q.dropStream(key, sc)
			return
		}
		now := q.en.clock.Now()
		sc.mu.Lock()
		sc.lastUsed = now
		sc.mu.Unlock()
		q.settleResponse(&sc.pend, msg, now)
	}
}

// idleCloser enforces the client-side connection reuse timeout. A
// clock timer re-armed each wakeup rather than a ticker: vclock has no
// ticker, and a periodic re-Reset is the same behaviour.
func (q *querier) idleCloser(key streamKey, sc *streamConn) {
	defer q.io.Done()
	timeout := q.en.cfg.IdleTimeout
	timer := q.en.clock.NewTimer(timeout / 4)
	defer timer.Stop()
	for {
		select {
		case <-sc.done:
			return
		case <-timer.C():
			sc.mu.Lock()
			idle := q.en.clock.Now().Sub(sc.lastUsed)
			sc.mu.Unlock()
			if idle >= timeout {
				q.en.idleClosed.Add(1)
				q.dropStream(key, sc)
				return
			}
			timer.Reset(timeout / 4)
		}
	}
}

// closeSockets tears down all sockets after the drain grace period. The
// caller has already stopped the timing wheel, so no retransmission can
// fire during or after this. A UDP table closes once its reader has
// exited, so whatever the reader still settles counts as answered.
func (q *querier) closeSockets() {
	q.mu.Lock()
	for _, s := range q.udp {
		s.conn.Close()
	}
	conns := make([]*streamConn, 0, len(q.conn))
	keys := make([]streamKey, 0, len(q.conn))
	for k, c := range q.conn {
		conns = append(conns, c)
		keys = append(keys, k)
	}
	q.mu.Unlock()
	for i, c := range conns {
		q.dropStream(keys[i], c)
	}
	q.io.Wait()
	q.mu.Lock()
	for _, s := range q.udp {
		s.pend.close()
	}
	q.mu.Unlock()
}

type errNoTarget struct{ proto trace.Protocol }

// noTargetErrs preboxes one errNoTarget per protocol: the
// missing-target check sits inside the noalloc send loop, and boxing a
// fresh struct into error on every affected entry would allocate per
// query while the target stays unconfigured.
var noTargetErrs = [...]error{
	trace.UDP: errNoTarget{trace.UDP},
	trace.TCP: errNoTarget{trace.TCP},
	trace.TLS: errNoTarget{trace.TLS},
}

func (e errNoTarget) Error() string {
	return "replay: no target configured for protocol " + e.proto.String()
}

type errConnBroken struct{}

func (errConnBroken) Error() string { return "replay: connection broke on every attempt" }
