package authserver

import (
	"encoding/binary"

	"ldplayer/internal/dnswire"
)

// Packed-response cache. Zones are immutable for the lifetime of a run
// (§2.3: reconstructed zone files are fixed artifacts), so a response to
// a given (view, question, DO, transport-class, size-limit) tuple never
// changes and can be cached as a fully-encoded wire image. A hit copies
// the image and patches only the 2-byte ID, the echoed RD bit, and the
// question bytes (preserving the client's 0x20 label case), skipping
// parse, zone lookup, and packing entirely.

// Cache key layout (built into scratch.key, so the map probe via
// m[string(key)] compiles to a no-allocation lookup):
//
//	lowercased qname in wire form (length-prefixed labels, no terminator)
//	qtype (2) | qclass (2) | flag byte | effective UDP limit (2) | view id (4)
const (
	keyDO      = 1 << 0 // query asked for DNSSEC records
	keyHasEDNS = 1 << 1 // response must echo an OPT
	keyStream  = 1 << 2 // TCP/TLS: truncation never applies
)

// buildCacheKey validates that query has the canonical cacheable shape —
// opcode QUERY, QR clear, exactly one question with an uncompressed
// qname, no answer/authority records, and at most a well-formed OPT in
// additional — and assembles the cache key for that question asked of
// view into sc.key. It returns the wire length of the question name (for
// ID/question patching) and whether the query is cacheable. Anything
// unusual (compression pointers in the qname, TSIG, multiple questions)
// falls back to the slow path and is simply not cached, which keeps hit
// behaviour bit-identical to the slow path by construction.
//
//ldlint:noalloc
func buildCacheKey(sc *scratch, query []byte, transport Transport, view uint32) (int, bool) {
	if len(query) < 12 {
		return 0, false
	}
	flags := binary.BigEndian.Uint16(query[2:])
	if flags&0x8000 != 0 { // QR: a response, not a query
		return 0, false
	}
	if (flags>>11)&0xF != 0 { // non-QUERY opcode
		return 0, false
	}
	qd := binary.BigEndian.Uint16(query[4:])
	an := binary.BigEndian.Uint16(query[6:])
	ns := binary.BigEndian.Uint16(query[8:])
	ar := binary.BigEndian.Uint16(query[10:])
	if qd != 1 || an != 0 || ns != 0 || ar > 1 {
		return 0, false
	}

	key := sc.key[:0]
	off := 12
	for {
		if off >= len(query) {
			return 0, false
		}
		b := int(query[off])
		if b == 0 {
			off++
			break
		}
		if b&0xC0 != 0 { // compressed or reserved label: slow path
			return 0, false
		}
		if off+1+b > len(query) || off+1+b-12 > 255 {
			return 0, false
		}
		key = append(key, byte(b))
		for _, c := range query[off+1 : off+1+b] {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			key = append(key, c)
		}
		off += 1 + b
	}
	qnameLen := off - 12
	if off+4 > len(query) {
		return 0, false
	}
	key = append(key, query[off:off+4]...) // qtype, qclass
	off += 4

	var kf byte
	limit := uint16(dnswire.MaxUDPSize)
	if ar == 1 {
		// The single additional record must be an OPT at the root owner;
		// anything else (e.g. TSIG) is not cacheable.
		if off+11 > len(query) || query[off] != 0 {
			return 0, false
		}
		if dnswire.Type(binary.BigEndian.Uint16(query[off+1:])) != dnswire.TypeOPT {
			return 0, false
		}
		sz := binary.BigEndian.Uint16(query[off+3:])
		ttl := binary.BigEndian.Uint32(query[off+5:])
		rdlen := int(binary.BigEndian.Uint16(query[off+9:]))
		if off+11+rdlen > len(query) {
			return 0, false
		}
		// The options must parse, as the slow path insists: a malformed
		// OPT is FORMERR there, and must not hit a well-formed query's
		// entry here.
		for opts := query[off+11 : off+11+rdlen]; len(opts) > 0; {
			if len(opts) < 4 {
				return 0, false
			}
			end := 4 + int(binary.BigEndian.Uint16(opts[2:]))
			if len(opts) < end {
				return 0, false
			}
			opts = opts[end:]
		}
		kf |= keyHasEDNS
		if ttl&(1<<15) != 0 {
			kf |= keyDO
		}
		if sz > limit {
			limit = sz
		}
	}
	if transport != UDP {
		kf |= keyStream
		limit = 0 // normalize: stream responses are never truncated
	}
	key = append(key, kf, byte(limit>>8), byte(limit))
	key = binary.BigEndian.AppendUint32(key, view)
	sc.key = key
	return qnameLen, true
}

// cacheEntry is one packed response, stored in the cache maps by value.
// wire holds the full encoding with a zeroed ID and the question as the
// first asker spelled it (a hit overwrites both); truncated/refused/rcode
// replay the stat accounting the original slow-path build performed.
type cacheEntry struct {
	wire      string
	truncated bool
	refused   bool
	rcode     dnswire.Rcode
}

// newCacheEntry builds the map key (from sc.key) and the entry for one
// insert. Key and response image share one string — they live and die
// together — so an insert costs that allocation and, now and then, map
// growth.
func newCacheEntry(sc *scratch, resp []byte, meta respMeta) (string, cacheEntry) {
	n := len(sc.key)
	buf := sc.buf[:0]
	buf = append(buf, sc.key...)
	buf = append(buf, resp...)
	buf[n], buf[n+1] = 0, 0 // hits patch the ID in
	sc.buf = buf[:0]
	//ldlint:ignore noallocprop the documented per-miss allocation: the cache keeps a private copy of the key and the response image
	img := string(buf)
	return img[:n], cacheEntry{wire: img[n:], truncated: meta.truncated, refused: meta.refused, rcode: meta.rcode}
}

// appendCached appends ent's packed response to dst, patched with query's
// ID, RD bit, and question bytes (preserving the client's 0x20 label
// case), and charges st's response counters exactly as the slow path
// would have. With a nil dst the append is the contract's one allocation
// per response; the serve loops pass a reusable buffer and allocate
// nothing at steady state.
//
//ldlint:noalloc
func appendCached(st *coreStats, dst []byte, ent cacheEntry, query []byte, qnameLen int) []byte {
	base := len(dst)
	dst = append(dst, ent.wire...)
	out := dst[base:]
	out[0], out[1] = query[0], query[1]
	out[2] = out[2]&^0x01 | query[2]&0x01
	copy(out[12:12+qnameLen+4], query[12:12+qnameLen+4])
	st.responses.Add(1)
	st.respByRcode[int(ent.rcode)&0xF].Add(1)
	st.respBytes.Add(int64(len(out)))
	if ent.truncated {
		st.truncated.Add(1)
	}
	if ent.refused {
		st.refused.Add(1)
	}
	return dst
}

// cacheInsert stores ent under key in m, first evicting arbitrary entries
// while m is at capacity, and returns how many it evicted.
func cacheInsert(m map[string]cacheEntry, key string, ent cacheEntry, capacity int) (evicted int64) {
	if _, exists := m[key]; !exists {
		for len(m) >= capacity {
			for k := range m {
				delete(m, k)
				break
			}
			evicted++
		}
	}
	m[key] = ent
	return evicted
}
