// Package trace defines LDplayer's trace model and the three input
// formats of Figure 3: raw network traces (pcap, via internal/pcap),
// human-editable plain text (text.go), and the customized binary stream
// of internal messages used for fast replay — LDTRC02 blocks (block.go),
// whose CRC'd block frame (frame.go) is also what the controller↔client
// link and the qlog telemetry stream carry. Converters stream between
// them, so pre-processing never buffers a whole multi-gigabyte trace.
package trace

import (
	"errors"
	"io"
	"net/netip"
	"time"

	"ldplayer/internal/dnswire"
)

// Protocol is the transport a query used (or should use on replay).
type Protocol uint8

// Transport protocols.
const (
	UDP Protocol = iota
	TCP
	TLS
)

// String returns the protocol mnemonic used in the text format.
func (p Protocol) String() string {
	switch p {
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	case TLS:
		return "tls"
	}
	return "?"
}

// ParseProtocol converts a text-format protocol token.
func ParseProtocol(s string) (Protocol, bool) {
	switch s {
	case "udp":
		return UDP, true
	case "tcp":
		return TCP, true
	case "tls":
		return TLS, true
	}
	return UDP, false
}

// Entry is one DNS message event: the internal message unit that flows
// from input engine to controller to distributors to queriers.
type Entry struct {
	// Time is the capture timestamp (absolute; replay computes relative
	// offsets from the first entry).
	Time time.Time
	// Src is the original querier: source affinity and connection-reuse
	// emulation key off its address.
	Src netip.AddrPort
	// Dst is the original destination server (OQDA for recursive replay).
	Dst netip.AddrPort
	// Protocol the message used, or should use after mutation.
	Protocol Protocol
	// Message is the wire-format DNS message. Readers carve each message
	// out of fresh (or caller-owned, never-recycled) memory, so the buffer
	// is immutable once the entry is produced and downstream stages may
	// retain references to it past the entry's batch lifetime — the replay
	// retransmission path depends on this to track in-flight queries
	// without copying.
	Message []byte
}

// Clone deep-copies the entry.
func (e Entry) Clone() Entry {
	e.Message = append([]byte(nil), e.Message...)
	return e
}

// Decode unpacks the wire message into m.
func (e *Entry) Decode(m *dnswire.Message) error {
	return m.Unpack(e.Message)
}

// Reader yields trace entries in time order.
type Reader interface {
	// Next returns the next entry, or io.EOF at the end of the trace.
	Next() (Entry, error)
}

// Writer persists trace entries.
type Writer interface {
	Write(Entry) error
}

// BatchReader is implemented by readers that can decode many entries per
// call, amortizing per-record dispatch and allocation on the replay
// pre-load path. NextBatch fills dst from the front and returns the
// number of entries produced plus any error, following the io.Reader
// convention: callers must process the n entries before considering the
// error, and io.EOF is never returned alongside n > 0.
type BatchReader interface {
	Reader
	NextBatch(dst []Entry) (int, error)
}

// Partitioner is implemented by readers whose input can be split into
// independently readable shards (the LDTRC02 block index makes this a
// matter of slicing). Partition returns n readers over disjoint subsets
// of the trace, each yielding its subset in the original order, or
// ok=false when the reader cannot (or can no longer) be split. The
// replay engine uses it to give every distributor shard a private
// ingestion pipeline.
type Partitioner interface {
	Reader
	Partition(n int) ([]Reader, bool)
}

// ReadBatch fills dst from r, using the batch decode path when r provides
// one and falling back to per-entry Next calls otherwise. Same return
// convention as NextBatch.
func ReadBatch(r Reader, dst []Entry) (int, error) {
	if br, ok := r.(BatchReader); ok {
		return br.NextBatch(dst)
	}
	for i := range dst {
		e, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) && i > 0 {
				return i, nil
			}
			return i, err
		}
		dst[i] = e
	}
	return len(dst), nil
}

// ReadAll drains r into a slice (tests and small traces only; replay
// streams instead).
func ReadAll(r Reader) ([]Entry, error) {
	var out []Entry
	for {
		e, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
		out = append(out, e)
	}
}

// SliceReader adapts an in-memory slice to the Reader interface.
type SliceReader struct {
	entries []Entry
	pos     int
}

// NewSliceReader wraps entries.
func NewSliceReader(entries []Entry) *SliceReader {
	return &SliceReader{entries: entries}
}

// Next implements Reader.
func (r *SliceReader) Next() (Entry, error) {
	if r.pos >= len(r.entries) {
		return Entry{}, io.EOF
	}
	e := r.entries[r.pos]
	r.pos++
	return e, nil
}

// NextBatch implements BatchReader.
func (r *SliceReader) NextBatch(dst []Entry) (int, error) {
	if r.pos >= len(r.entries) {
		return 0, io.EOF
	}
	n := copy(dst, r.entries[r.pos:])
	r.pos += n
	return n, nil
}

// Reset rewinds the reader for another pass.
func (r *SliceReader) Reset() { r.pos = 0 }
