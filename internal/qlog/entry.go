package qlog

import (
	"errors"
	"io"
	"net/netip"
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/trace"
)

// Bridging qlog captures back into the trace toolchain: EventEntry
// synthesizes the query a logged event describes, EntryReader adapts a
// qlog stream into a trace.Reader (so `ldplayer replay -in x.qlog` and
// traceconv work unchanged), and NewTraceSink converts live events into
// any trace.Writer (text, blocks, and from there pcap).

// EventEntry synthesizes the trace entry for ev: a wire-format query
// with the logged ID/qname/qtype/qclass, sourced from the peer address
// (the client identity on both server- and replay-side events) and
// destined for the unspecified address on port 53 — the capture does not
// record the local listener, and replay targets come from flags anyway.
// Events without a recorded qname return ok=false: there is no question
// to rebuild.
func EventEntry(ev *Event) (e trace.Entry, ok bool) {
	if ev.QNameLen == 0 {
		return trace.Entry{}, false
	}
	qt := dnswire.Type(ev.QType)
	if qt == 0 {
		qt = dnswire.TypeA
	}
	qc := dnswire.Class(ev.QClass)
	if qc == 0 {
		qc = dnswire.ClassINET
	}
	m := dnswire.Message{
		Header: dnswire.Header{ID: ev.ID, RD: true},
		Question: []dnswire.Question{{
			Name:  dnswire.CanonicalName(ev.QNameString()),
			Type:  qt,
			Class: qc,
		}},
	}
	wire, err := m.Pack(nil)
	if err != nil {
		return trace.Entry{}, false
	}
	src := ev.Peer
	dst := netip.IPv4Unspecified()
	if !src.IsValid() {
		src = netip.IPv4Unspecified()
	}
	// Both ends of a synthesized entry share one address family.
	if src.Is6() {
		dst = netip.IPv6Unspecified()
	}
	proto := trace.Protocol(ev.Transport)
	if proto > trace.TLS {
		proto = trace.UDP
	}
	return trace.Entry{
		Time:     time.Unix(0, ev.Time),
		Src:      netip.AddrPortFrom(src, 0),
		Dst:      netip.AddrPortFrom(dst, 53),
		Protocol: proto,
		Message:  wire,
	}, true
}

// EntryReader adapts a qlog binary stream into a trace.Reader, skipping
// events that carry no qname. A partially-captured final block (e.g. a
// TCP stream cut mid-write) terminates the trace cleanly at EOF.
type EntryReader struct {
	r  *Reader
	ev Event
}

// NewEntryReader wraps a qlog binary stream.
func NewEntryReader(r io.Reader) *EntryReader {
	return &EntryReader{r: NewReader(r)}
}

// Next implements trace.Reader.
func (er *EntryReader) Next() (trace.Entry, error) {
	for {
		if err := er.r.Next(&er.ev); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return trace.Entry{}, io.EOF
			}
			return trace.Entry{}, err
		}
		if e, ok := EventEntry(&er.ev); ok {
			return e, nil
		}
	}
}

// traceEntryWriter adapts a trace.Writer to the sink's internal shape.
type traceEntryWriter struct {
	w trace.Writer
}

func (t traceEntryWriter) write(ev *Event) error {
	e, ok := EventEntry(ev)
	if !ok {
		return errNoQName
	}
	return t.w.Write(e)
}

// NewTraceSink wraps a trace.Writer (text or blocks) as a qlog sink.
// flush, if non-nil, runs at Close (pass the writer's Flush).
func NewTraceSink(w trace.Writer, flush func() error) *TraceSink {
	return &TraceSink{w: traceEntryWriter{w: w}, flush: flush}
}
