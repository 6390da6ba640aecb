// Package qlog is the streaming query-log telemetry pipeline: one
// compact binary event per query, exported off the datapath without
// perturbing it. It is the dnstap-style collectors → transformers →
// loggers architecture, specialized for this repo's hot paths:
//
//   - Producers (one per authserver engine shard, one per replay
//     querier) write events directly into per-producer bounded SPSC
//     rings. An enqueue is a bounds check and a handful of stores —
//     never a syscall, never a lock, never a block. When a ring is full the
//     event is counted as dropped and the datapath moves on; telemetry
//     load-sheds, service never does.
//
//   - A single collector goroutine sweeps the rings, runs each event
//     through a pluggable transformer chain (sampling, qname suffix
//     filtering, keyed-hash anonymization, slow/suspicious tagging) and
//     fans the survivors out to sinks: a rotating binary file or a
//     TCP stream (both the LDQLOG02 block stream of block.go), or
//     conversion into the existing trace formats so captured streams
//     feed straight back into `ldplayer replay`.
//
// Every stage accounts what it sheds: ring drops, per-transformer drops,
// and per-sink written/dropped/error counts federate into the obs
// registry via Pipeline.Instrument, so "events + drops == queries" is an
// auditable invariant, not a hope.
package qlog

import "net/netip"

// MaxQName is the largest wire-form domain name (RFC 1035 §3.1), root
// terminator included. Event stores qnames inline at this bound so ring
// slots are fixed-size and an enqueue never chases a pointer.
const MaxQName = 255

// Event flag bits.
const (
	// FlagCacheHit marks a query answered from the packed-response cache.
	FlagCacheHit uint8 = 1 << 0
	// FlagSlow is set by the Tagger when the sampled latency exceeds its
	// threshold.
	FlagSlow uint8 = 1 << 1
	// FlagSuspicious is set by the Tagger for qnames matching its
	// tunnel-ish heuristics (overlong labels, excessive label counts).
	FlagSuspicious uint8 = 1 << 2
	// FlagDropped marks a query that produced no response (undecodable,
	// or policy-dropped).
	FlagDropped uint8 = 1 << 3
	// FlagClientSend marks a replay-side transmission event (the peer is
	// the emulated source); server-side events leave it clear.
	FlagClientSend uint8 = 1 << 4
)

// Event is one query's telemetry record. It is a fixed-size value — the
// qname is stored inline in wire form — so producers copy fields straight
// into a ring slot with no per-event allocation and no shared buffers.
//
// Peer is the client identity: the query's source address on the server
// side, the emulated original source on the replay side. View names the
// split-horizon view that answered ("" when unknown). Latency is the
// engine-measured service time in nanoseconds for queries the obs sampler
// timed, and -1 for the rest — latency is sampled, events are not.
type Event struct {
	Time    int64 // unix nanoseconds at receive (server) or send (client)
	Latency int64 // sampled service latency in ns; -1 = not timed

	Peer netip.Addr // client identity; see Event doc
	View string     // split-horizon view name; aliases engine-owned memory

	ID     uint16 // DNS message ID
	QType  uint16
	QClass uint16

	Rcode     uint8
	Transport uint8 // trace.Protocol / authserver.Transport numbering
	Flags     uint8
	QNameLen  uint8 // wire-form length incl. root terminator; 0 = unknown

	QName [MaxQName]byte // wire-form (length-prefixed labels), not unpacked
}

// SetQName stores a wire-form qname (root terminator included) inline.
// Overlong or empty names store as unknown.
//
//ldlint:noalloc
func (ev *Event) SetQName(wire []byte) {
	if len(wire) == 0 || len(wire) > len(ev.QName) {
		ev.QNameLen = 0
		return
	}
	ev.QNameLen = uint8(copy(ev.QName[:], wire))
}

// QNameString renders the stored qname in presentation form ("." for the
// root, "" when unknown). Collector/test-side only; it allocates.
func (ev *Event) QNameString() string {
	q := ev.QName[:ev.QNameLen]
	if len(q) == 0 {
		return ""
	}
	var b []byte
	for off := 0; off < len(q); {
		l := int(q[off])
		off++
		if l == 0 || off+l > len(q) {
			break
		}
		b = append(b, q[off:off+l]...)
		b = append(b, '.')
		off += l
	}
	if len(b) == 0 {
		return "."
	}
	return string(b)
}

// WireQNameLen returns the length, root terminator included, of the first
// question name of the wire-format DNS message msg, or 0 when the
// question is absent, compressed, malformed, or not followed by a full
// qtype+qclass. Queries on this repo's paths never compress the question,
// so 0 reliably means "no name to log".
//
//ldlint:noalloc
func WireQNameLen(msg []byte) int {
	if len(msg) < 12+1+4 {
		return 0
	}
	if int(msg[4])<<8|int(msg[5]) == 0 {
		return 0 // QDCOUNT == 0
	}
	off := 12
	for off < len(msg) {
		l := int(msg[off])
		if l == 0 {
			n := off + 1 - 12
			if n > MaxQName || off+1+4 > len(msg) {
				return 0
			}
			return n
		}
		if l > 63 {
			return 0 // compression pointer or malformed label
		}
		off += 1 + l
	}
	return 0
}
