package replay

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/netip"
	"time"

	"ldplayer/internal/trace"
)

// The controller-to-client-instance link (Figure 4/5): the controller's
// Postman streams internal messages over TCP to remote client instances,
// each running its own distributor + querier pool. The paper chooses TCP
// for reliable message exchange among distributors; so do we.
//
// Each connection carries 'S' <int64 trace-start unixnano>, the broadcast
// time synchronization point, followed by an ordinary LDTRC02 block stream
// (internal/trace: magic, CRC'd blocks, footer index) of the entries
// assigned to that client. The footer index is the end-of-trace marker: a
// link that closes before it was cut short.

const frameSync = 'S'

// linkClient is the controller's end of one client link.
type linkClient struct {
	conn net.Conn
	buf  *bufio.Writer
	w    *trace.BlockWriter
}

func newLinkClient(conn net.Conn, opts trace.BlockWriterOptions) *linkClient {
	buf := bufio.NewWriterSize(conn, 256*1024)
	return &linkClient{conn: conn, buf: buf, w: trace.NewBlockWriterOptions(buf, opts)}
}

// fail names the client whose link broke.
func (c *linkClient) fail(err error) error {
	return fmt.Errorf("replay: client %s: %w", c.conn.RemoteAddr(), err)
}

// RemoteController distributes a trace stream to remote client instances
// with the same sticky source assignment the in-process postman uses.
type RemoteController struct {
	clients []*linkClient
	seed    maphash.Seed
}

// DialClients connects to client instances listening at addrs.
func DialClients(addrs ...string) (*RemoteController, error) {
	if len(addrs) == 0 {
		return nil, errors.New("replay: no client addresses")
	}
	rc := &RemoteController{seed: maphash.MakeSeed()}
	for _, a := range addrs {
		conn, err := net.Dial("tcp", a)
		if err != nil {
			rc.Close()
			return nil, err
		}
		rc.clients = append(rc.clients, newLinkClient(conn, trace.BlockWriterOptions{}))
	}
	return rc, nil
}

// sync broadcasts the time synchronization point.
func (rc *RemoteController) sync(t time.Time) error {
	var sf [9]byte
	sf[0] = frameSync
	binary.BigEndian.PutUint64(sf[1:], uint64(t.UnixNano()))
	for _, c := range rc.clients {
		if _, err := c.buf.Write(sf[:]); err != nil {
			return c.fail(err)
		}
	}
	return nil
}

// Run streams r to the clients until EOF, then finishes each client's
// block stream (the end-of-trace marker) and closes the links. A client
// that goes away mid-stream ends the run with an error naming it.
func (rc *RemoteController) Run(r trace.Reader) error {
	assign := make(map[netip.Addr]int, 1024)
	synced := false
	for {
		e, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		if !synced {
			if err := rc.sync(e.Time); err != nil {
				return err
			}
			synced = true
		}
		src := e.Src.Addr()
		idx, ok := assign[src]
		if !ok {
			idx = int(maphash.Comparable(rc.seed, src)) % len(rc.clients)
			if idx < 0 {
				idx = -idx
			}
			assign[src] = idx
		}
		c := rc.clients[idx]
		if err := c.w.Write(e); err != nil {
			return c.fail(err)
		}
	}
	if !synced { // empty trace: the clients still get a whole, empty stream
		if err := rc.sync(time.Unix(0, 0)); err != nil {
			return err
		}
	}
	for _, c := range rc.clients {
		if err := c.w.Close(); err != nil {
			return c.fail(err)
		}
		if err := c.buf.Flush(); err != nil {
			return c.fail(err)
		}
	}
	rc.Close()
	return nil
}

// Close closes all client links.
func (rc *RemoteController) Close() {
	for _, c := range rc.clients {
		c.conn.Close()
	}
}

// linkReader is the client's end of a link: the block stream, plus the
// broadcast sync point that preceded it.
type linkReader struct {
	*trace.StreamReader
	traceStart time.Time
}

// openLink reads the sync point off the front of a controller link.
func openLink(conn io.Reader) (*linkReader, error) {
	r := bufio.NewReaderSize(conn, 256*1024)
	var sf [9]byte
	if _, err := io.ReadFull(r, sf[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("replay: reading the link's sync point: %w", err)
	}
	if sf[0] != frameSync {
		return nil, fmt.Errorf("replay: link starts with %q, not a sync point", sf[0])
	}
	t0 := time.Unix(0, int64(binary.BigEndian.Uint64(sf[1:])))
	return &linkReader{trace.NewStreamReader(r), t0}, nil
}

// TraceStart implements the provider the engine consults so the remote
// querier's Δt̄ is computed against the global trace start, not the first
// entry that happened to reach this instance.
func (lr *linkReader) TraceStart() (time.Time, bool) { return lr.traceStart, true }

// traceStartProvider lets a reader supply the global trace start (the
// sync broadcast) instead of the first locally seen entry.
type traceStartProvider interface {
	TraceStart() (time.Time, bool)
}

// ServeClient accepts one controller connection on ln and replays its
// stream through en, returning the run's statistics. The trace is over
// only at the block stream's footer index: if the link closes anywhere
// else — the controller died — ServeClient returns the statistics of what
// it replayed, every block that arrived whole, with io.ErrUnexpectedEOF;
// a block that fails its CRC is likewise an error, never entries.
func ServeClient(ln net.Listener, en *Engine) (*Stats, error) {
	conn, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	lr, err := openLink(conn)
	if err != nil {
		return nil, err
	}
	st, err := en.Replay(context.Background(), lr)
	if err == nil && !lr.Indexed() {
		err = fmt.Errorf("replay: controller link closed before the end of the trace: %w", io.ErrUnexpectedEOF)
	}
	return st, err
}
