package qlog

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Sink receives transformed event batches from the collector goroutine.
// Sinks self-account instead of returning errors: a sink that cannot
// write sheds the batch (counting it dropped), so one broken sink never
// wedges the pipeline or steals events from its siblings. WriteBatch is
// called from one goroutine; Stats may be read concurrently.
type Sink interface {
	Name() string
	WriteBatch(evs []Event)
	Stats() SinkStats
	Close() error
}

// SinkStats is one sink's accounting: Written + Dropped equals the
// events the pipeline offered it.
type SinkStats struct {
	Written int64
	Dropped int64
	Errors  int64
}

// sinkCounters is the shared accounting implementation.
type sinkCounters struct {
	written atomic.Int64
	dropped atomic.Int64
	errors  atomic.Int64
}

func (c *sinkCounters) Stats() SinkStats {
	return SinkStats{Written: c.written.Load(), Dropped: c.dropped.Load(), Errors: c.errors.Load()}
}

// FileSink writes the binary stream to a file, rotating by size:
// the live file is always `path`; on rotation it is renamed to
// `path.<seq>` and the oldest rotations beyond the keep budget are
// removed, bounding total disk to roughly (keep+1) × rotateBytes.
//
// A path ending in ".z" DEFLATEs the blocks; anything else stores them
// raw. The block header says which, so Reader does not care.
type FileSink struct {
	sinkCounters
	path        string
	rotateBytes int64
	keep        int
	compress    bool
	f           *os.File
	w           *BlockWriter
	seq         int
}

// NewFileSink opens (truncating) path. rotateBytes <= 0 disables
// rotation; keep <= 0 keeps 8 rotated files.
func NewFileSink(path string, rotateBytes int64, keep int) (*FileSink, error) {
	if keep <= 0 {
		keep = 8
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &FileSink{path: path, rotateBytes: rotateBytes, keep: keep, f: f,
		compress: strings.HasSuffix(path, ".z")}
	s.w = NewBlockWriter(f, s.compress)
	return s, nil
}

// Name implements Sink.
func (s *FileSink) Name() string { return "file" }

// WriteBatch implements Sink.
func (s *FileSink) WriteBatch(evs []Event) {
	if s.f == nil {
		s.dropped.Add(int64(len(evs)))
		return
	}
	for i := range evs {
		if err := s.w.Write(&evs[i]); err != nil {
			s.errors.Add(1)
			s.dropped.Add(int64(len(evs) - i))
			return
		}
		s.written.Add(1)
	}
	if s.rotateBytes > 0 && s.w.BytesWritten() >= s.rotateBytes {
		if err := s.rotate(); err != nil {
			s.errors.Add(1)
		}
	}
}

// rotate renames the live file aside and starts a fresh one.
func (s *FileSink) rotate() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.seq++
	if err := os.Rename(s.path, s.path+"."+strconv.Itoa(s.seq)); err != nil {
		return err
	}
	if old := s.seq - s.keep; old >= 1 {
		_ = os.Remove(s.path + "." + strconv.Itoa(old))
	}
	f, err := os.Create(s.path)
	if err != nil {
		s.f, s.w = nil, nil
		return err
	}
	s.f = f
	s.w = NewBlockWriter(f, s.compress)
	return nil
}

// Close implements Sink.
func (s *FileSink) Close() error {
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// TCPSink streams the binary format to a collector address, one raw
// block per batch. Writes carry a per-batch deadline, so a stalled peer
// sheds batches instead of stalling the pipeline; a broken connection is
// redialed with backoff, and each new connection restarts the stream
// (magic included), which Reader handles naturally on the receiving side.
type TCPSink struct {
	sinkCounters
	addr    string
	timeout time.Duration

	conn     net.Conn
	w        *BlockWriter
	nextDial time.Time
	backoff  time.Duration
}

// DefaultTCPTimeout is the per-batch write deadline.
const DefaultTCPTimeout = time.Second

// NewTCPSink creates a sink streaming to addr ("host:port"). The
// connection is dialed lazily on first write, so a collector that is not
// up yet costs drops, not a failed start. timeout <= 0 means
// DefaultTCPTimeout.
func NewTCPSink(addr string, timeout time.Duration) *TCPSink {
	if timeout <= 0 {
		timeout = DefaultTCPTimeout
	}
	return &TCPSink{addr: addr, timeout: timeout}
}

// Name implements Sink.
func (s *TCPSink) Name() string { return "tcp" }

// WriteBatch implements Sink.
func (s *TCPSink) WriteBatch(evs []Event) {
	if s.conn == nil && !s.redial() {
		s.dropped.Add(int64(len(evs)))
		return
	}
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	for i := range evs {
		if err := s.w.Write(&evs[i]); err != nil {
			s.fail(int64(len(evs) - i))
			return
		}
	}
	if err := s.w.Flush(); err != nil {
		s.fail(int64(len(evs)))
		return
	}
	s.written.Add(int64(len(evs)))
	s.backoff = 0
}

// redial attempts a (rate-limited) reconnect, reporting success.
func (s *TCPSink) redial() bool {
	now := time.Now()
	if now.Before(s.nextDial) {
		return false
	}
	conn, err := net.DialTimeout("tcp", s.addr, s.timeout)
	if err != nil {
		s.errors.Add(1)
		s.bumpBackoff(now)
		return false
	}
	s.conn = conn
	s.w = NewBlockWriter(conn, false)
	return true
}

// fail drops n events, tears the connection down, and arms the redial
// backoff.
func (s *TCPSink) fail(n int64) {
	s.errors.Add(1)
	s.dropped.Add(n)
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.w = nil
	}
	s.bumpBackoff(time.Now())
}

func (s *TCPSink) bumpBackoff(now time.Time) {
	if s.backoff == 0 {
		s.backoff = 10 * time.Millisecond
	} else if s.backoff < 500*time.Millisecond {
		s.backoff *= 2
	}
	s.nextDial = now.Add(s.backoff)
}

// Close implements Sink.
func (s *TCPSink) Close() error {
	if s.conn == nil {
		return nil
	}
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	if err := s.w.Flush(); err != nil {
		s.conn.Close()
		return err
	}
	return s.conn.Close()
}

// TraceSink converts events into trace entries and writes them through
// an internal/trace writer (text or binary), so a live capture is
// immediately a replayable trace. Events without a recorded qname cannot
// synthesize a query message and are counted dropped.
type TraceSink struct {
	sinkCounters
	w     entryWriter
	flush func() error
}

// entryWriter matches trace.Writer without importing it here (entry.go
// owns the trace dependency).
type entryWriter interface {
	write(ev *Event) error
}

// Name implements Sink.
func (s *TraceSink) Name() string { return "trace" }

// WriteBatch implements Sink.
func (s *TraceSink) WriteBatch(evs []Event) {
	for i := range evs {
		if err := s.w.write(&evs[i]); err != nil {
			if err == errNoQName {
				s.dropped.Add(1)
				continue
			}
			s.errors.Add(1)
			s.dropped.Add(int64(len(evs) - i))
			return
		}
		s.written.Add(1)
	}
}

// Close implements Sink.
func (s *TraceSink) Close() error {
	if s.flush != nil {
		return s.flush()
	}
	return nil
}

var errNoQName = fmt.Errorf("qlog: event has no qname to synthesize a query from")

// DiscardSink counts events and throws them away — the bench harness's
// no-op sink, isolating ring+collector throughput from encode cost.
type DiscardSink struct {
	sinkCounters
}

// NewDiscardSink creates a DiscardSink.
func NewDiscardSink() *DiscardSink { return &DiscardSink{} }

// Name implements Sink.
func (s *DiscardSink) Name() string { return "discard" }

// WriteBatch implements Sink.
func (s *DiscardSink) WriteBatch(evs []Event) { s.written.Add(int64(len(evs))) }

// Close implements Sink.
func (s *DiscardSink) Close() error { return nil }
