package authserver

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"

	"ldplayer/internal/dnswire"
)

// Packed-response cache. Zones are immutable for the lifetime of a run
// (§2.3: reconstructed zone files are fixed artifacts), so a response to
// a given (view, question, DO, transport-class, size-limit) tuple never
// changes and can be cached as a fully-encoded wire image. A hit copies
// the image and patches only the 2-byte ID, the echoed RD bit, and the
// question bytes (preserving the client's 0x20 label case), skipping
// parse, zone lookup, and packing entirely. Each shard keeps its own
// cache (respCache, below): records in one pointer-free byte ring,
// evicted oldest first, so neither a hit nor, at steady state, a miss's
// insert allocates.

// Cache key layout (built into scratch.key; the ring stores it in front
// of the response image and a hit compares it byte for byte):
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

// cacheEntry is one cached response as a hit reads it: wire is the full
// encoding with a zeroed ID and the question as the first asker spelled
// it (a hit overwrites both), a view into the shard's ring valid until
// its next insert; truncated/refused/rcode replay the stat accounting the
// original slow-path build performed.
type cacheEntry struct {
	wire      []byte
	truncated bool
	refused   bool
	rcode     dnswire.Rcode
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

// respCache is a shard's packed-response cache: the records back to
// back in one byte ring, evicted oldest first, and an index from a
// seeded hash of each record's key to its offset. Neither holds a
// pointer, so the garbage collector never scans the cache, and at steady
// state an insert allocates nothing: it overwrites the oldest records.
//
// A record is
//
//	hash (8) | key length (2) | response length (2) | meta (1) | key | response
//
// with meta's low nibble the rcode, bit 4 truncated and bit 5 refused;
// the stored hash spares eviction and growth from hashing the key again.
// Records never straddle the end of the ring: one that does not fit
// before it goes to offset 0, and wrapAt marks where the records written
// before that end. The index points at the newest record with a given hash; a lookup
// compares the key bytes there, so a hash collision is a miss, never
// another question's answer, and an eviction deletes the index slot only
// if it still points at the evicted record.
//
// The capacity is an entry count, as SetResponseCacheCap documents. The
// ring starts at ringMinBytes and doubles whenever a record does not fit
// while the cache holds fewer entries than that, so its size follows
// what is cached rather than the cap.
type respCache struct {
	ring  []byte
	index map[uint64]uint32
	seed  maphash.Seed
	// hashMask is all ones; tests clear it to force index collisions.
	hashMask uint64

	head, tail int // next write offset; oldest record's offset
	// wrapAt is where the records before offset 0 end, while wrapped
	// (head < tail, or head == tail in a full ring).
	wrapAt  int
	wrapped bool
	n       int // records in the ring
}

const (
	recHdr       = 13
	recTrunc     = 1 << 4
	recRefused   = 1 << 5
	ringMinBytes = 1 << 10
	// ringMaxBytes keeps ring sizes and offsets within a 32-bit int and
	// the index's uint32.
	ringMaxBytes = 1 << 30
)

func newRespCache() respCache {
	return respCache{seed: maphash.MakeSeed(), hashMask: ^uint64(0)}
}

// hash is the index hash of key.
//
//ldlint:noalloc
func (c *respCache) hash(key []byte) uint64 {
	return maphash.Bytes(c.seed, key) & c.hashMask
}

// get returns the entry cached under key, whose hash is h.
//
//ldlint:noalloc
func (c *respCache) get(h uint64, key []byte) (cacheEntry, bool) {
	off, ok := c.index[h]
	if !ok {
		return cacheEntry{}, false
	}
	rec := c.ring[off:]
	kl := int(binary.LittleEndian.Uint16(rec[8:]))
	rl := int(binary.LittleEndian.Uint16(rec[10:]))
	if !bytes.Equal(rec[recHdr:recHdr+kl], key) {
		return cacheEntry{}, false
	}
	meta := rec[12]
	return cacheEntry{
		wire:      rec[recHdr+kl : recHdr+kl+rl],
		truncated: meta&recTrunc != 0,
		refused:   meta&recRefused != 0,
		rcode:     dnswire.Rcode(meta & 0xF),
	}, true
}

// put caches resp (with its ID zeroed) under key, whose hash is h and
// which get has just missed, evicting the oldest records while the cache
// holds capacity entries or the ring has no room, and returns how many
// it evicted.
func (c *respCache) put(h uint64, key, resp []byte, meta respMeta, capacity int) (evicted int64) {
	size := recHdr + len(key) + len(resp)
	full := c.n >= capacity
	for c.n >= capacity {
		c.evict()
		evicted++
	}
	for {
		off, ok := c.reserve(size)
		if ok {
			c.write(off, h, key, resp, meta)
			return evicted
		}
		if (!full || c.n == 0) && len(c.ring) < ringMaxBytes {
			//ldlint:ignore noallocprop amortized: the ring doubles while the cache fills, then stays put
			c.grow(size)
			continue
		}
		c.evict()
		evicted++
	}
}

// reserve finds room for a record of size bytes at head without
// evicting, wrapping to offset 0 when the record does not fit before the
// end of the ring.
//
//ldlint:noalloc
func (c *respCache) reserve(size int) (int, bool) {
	if c.wrapped {
		return c.head, c.head+size <= c.tail
	}
	if c.head+size <= len(c.ring) {
		return c.head, true
	}
	if c.n > 0 && size <= c.tail {
		c.wrapAt, c.head, c.wrapped = c.head, 0, true
		return 0, true
	}
	return 0, false
}

// write stores one record at off, which reserve returned, and indexes it.
//
//ldlint:noalloc
func (c *respCache) write(off int, h uint64, key, resp []byte, meta respMeta) {
	rec := c.ring[off : off+recHdr+len(key)+len(resp)]
	binary.LittleEndian.PutUint64(rec, h)
	binary.LittleEndian.PutUint16(rec[8:], uint16(len(key)))
	binary.LittleEndian.PutUint16(rec[10:], uint16(len(resp)))
	m := byte(meta.rcode) & 0xF
	if meta.truncated {
		m |= recTrunc
	}
	if meta.refused {
		m |= recRefused
	}
	rec[12] = m
	copy(rec[recHdr:], key)
	img := rec[recHdr+len(key):]
	copy(img, resp)
	img[0], img[1] = 0, 0 // hits patch the ID in
	c.index[h] = uint32(off)
	c.head = off + len(rec)
	c.n++
}

// recLen is the size of the record at off.
//
//ldlint:noalloc
func (c *respCache) recLen(off int) int {
	return recHdr + int(binary.LittleEndian.Uint16(c.ring[off+8:])) + int(binary.LittleEndian.Uint16(c.ring[off+10:]))
}

// evict drops the oldest record.
//
//ldlint:noalloc
func (c *respCache) evict() {
	off := c.tail
	h := binary.LittleEndian.Uint64(c.ring[off:])
	if at, ok := c.index[h]; ok && int(at) == off {
		delete(c.index, h)
	}
	c.n--
	c.tail += c.recLen(off)
	switch {
	case c.n == 0:
		c.head, c.tail, c.wrapped = 0, 0, false
	case c.wrapped && c.tail == c.wrapAt:
		c.tail, c.wrapped = 0, false
	}
}

// grow moves the records, oldest first, to the front of a ring at least
// twice the size (and big enough for a need-byte record), and repoints
// the index at them. Walking oldest to newest, the last record indexed
// under a hash is the newest, the one the index names.
func (c *respCache) grow(need int) {
	size := max(2*len(c.ring), ringMinBytes)
	for size < len(c.ring)+need {
		size *= 2
	}
	ring := make([]byte, size)
	if c.index == nil {
		c.index = make(map[uint64]uint32)
	}
	at, off := c.tail, 0
	for i := 0; i < c.n; i++ {
		if c.wrapped && at == c.wrapAt {
			at = 0
		}
		l := c.recLen(at)
		copy(ring[off:], c.ring[at:at+l])
		c.index[binary.LittleEndian.Uint64(ring[off:])] = uint32(off)
		at += l
		off += l
	}
	c.ring, c.head, c.tail, c.wrapped = ring, off, 0, false
}

// reset drops every record and the ring itself, which regrows as the
// cache refills.
//
//ldlint:noalloc
func (c *respCache) reset() {
	c.ring, c.index = nil, nil
	c.head, c.tail, c.wrapAt, c.wrapped, c.n = 0, 0, 0, false, 0
}
