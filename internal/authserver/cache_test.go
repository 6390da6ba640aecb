package authserver

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/zone"
)

// TestCacheIDPatching: two queries for the same question with different
// IDs must get responses carrying their own IDs, with the second served
// from the cache.
func TestCacheIDPatching(t *testing.T) {
	e := hierarchyEngine(t)
	for i, id := range []uint16{0x1111, 0x2B2B} {
		q := dnswire.NewQuery(id, "www.example.com.", dnswire.TypeA)
		resp := respond(t, e, q, exNSAddr, UDP)
		if resp.Header.ID != id {
			t.Errorf("query %d: ID = %#x, want %#x", i, resp.Header.ID, id)
		}
		if len(resp.Answer) != 1 || resp.Answer[0].Data.String() != "192.0.2.80" {
			t.Errorf("query %d: answer = %v", i, resp.Answer)
		}
	}
	cs := e.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", cs)
	}
}

// TestCacheRDEcho: the cached image must echo each client's RD flag, not
// the flag of the query that populated the entry.
func TestCacheRDEcho(t *testing.T) {
	e := hierarchyEngine(t)
	q := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA) // RD set
	if resp := respond(t, e, q, exNSAddr, UDP); !resp.Header.RD {
		t.Error("RD-set query: response RD clear")
	}
	q2 := dnswire.NewQuery(2, "www.example.com.", dnswire.TypeA)
	q2.Header.RD = false
	if resp := respond(t, e, q2, exNSAddr, UDP); resp.Header.RD {
		t.Error("RD-clear query served from cache with RD set")
	}
	if cs := e.CacheStats(); cs.Hits != 1 {
		t.Errorf("cache stats = %+v, want exactly 1 hit", cs)
	}
}

// bigRRsetEngine serves a deliberately oversized RRset behind a default
// view, so UDP responses truncate and TCP responses do not.
func bigRRsetEngine(t *testing.T) *Engine {
	t.Helper()
	z := zone.New("big.example.")
	must := func(rr dnswire.RR) {
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	must(dnswire.RR{Name: "big.example.", Class: dnswire.ClassINET, TTL: 60, Data: dnswire.SOA{
		MName: "ns.big.example.", RName: "root.big.example.", Serial: 1,
		Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}})
	must(dnswire.RR{Name: "big.example.", Class: dnswire.ClassINET, TTL: 60, Data: dnswire.NS{Host: "ns.big.example."}})
	for i := 0; i < 60; i++ {
		must(dnswire.RR{Name: "fat.big.example.", Class: dnswire.ClassINET, TTL: 60,
			Data: dnswire.TXT{Strings: []string{strings.Repeat("x", 40) + fmt.Sprintf("%03d", i)}}})
	}
	e := NewEngine()
	if err := e.AddView(&View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCacheTransportKeying: a UDP-truncated answer and the TCP full
// answer must not share a cache entry, in either warm-up order.
func TestCacheTransportKeying(t *testing.T) {
	e := bigRRsetEngine(t)
	q := dnswire.NewQuery(1, "fat.big.example.", dnswire.TypeTXT)

	udp1 := respond(t, e, q, clientAddr, UDP)
	tcp1 := respond(t, e, q, clientAddr, TCP)
	// Both entries are now cached; hit them again.
	udp2 := respond(t, e, q, clientAddr, UDP)
	tcp2 := respond(t, e, q, clientAddr, TCP)

	for i, resp := range []*dnswire.Message{udp1, udp2} {
		if !resp.Header.TC || len(resp.Answer) != 0 {
			t.Errorf("UDP response %d not truncated: TC=%v answers=%d", i, resp.Header.TC, len(resp.Answer))
		}
	}
	for i, resp := range []*dnswire.Message{tcp1, tcp2} {
		if resp.Header.TC || len(resp.Answer) != 60 {
			t.Errorf("TCP response %d: TC=%v answers=%d, want full 60", i, resp.Header.TC, len(resp.Answer))
		}
	}
	if cs := e.CacheStats(); cs.Hits != 2 || cs.Misses != 2 {
		t.Errorf("cache stats = %+v, want 2 hits / 2 misses", cs)
	}
	// Truncation accounting must replay on cached hits too.
	if st := e.Stats(); st.Truncated != 2 {
		t.Errorf("truncated = %d, want 2 (one build, one cached hit)", st.Truncated)
	}
}

// TestCacheDOKeying: DO and non-DO queries must map to different entries
// (signed answers differ), and the EDNS echo must match each query.
func TestCacheDOKeying(t *testing.T) {
	e := hierarchyEngine(t)
	mk := func(id uint16, do, edns bool) *dnswire.Message {
		q := dnswire.NewQuery(id, "www.example.com.", dnswire.TypeA)
		if edns {
			q.Edns = &dnswire.EDNS{UDPSize: 4096, DO: do}
		}
		return q
	}
	// Warm all three variants, then hit each again.
	for round := 0; round < 2; round++ {
		resp := respond(t, e, mk(1, true, true), exNSAddr, UDP)
		if resp.Edns == nil || !resp.Edns.DO {
			t.Fatalf("round %d: DO query: EDNS = %+v", round, resp.Edns)
		}
		resp = respond(t, e, mk(2, false, true), exNSAddr, UDP)
		if resp.Edns == nil || resp.Edns.DO {
			t.Fatalf("round %d: non-DO EDNS query: EDNS = %+v", round, resp.Edns)
		}
		resp = respond(t, e, mk(3, false, false), exNSAddr, UDP)
		if resp.Edns != nil {
			t.Fatalf("round %d: plain query got unsolicited OPT", round)
		}
	}
	if cs := e.CacheStats(); cs.Hits != 3 || cs.Misses != 3 {
		t.Errorf("cache stats = %+v, want 3 hits / 3 misses", cs)
	}
}

// TestCacheCaseInsensitiveHit: a mixed-case (0x20-style) repeat of a
// cached question must hit, and the response must echo the client's
// exact question bytes.
func TestCacheCaseInsensitiveHit(t *testing.T) {
	e := hierarchyEngine(t)
	respond(t, e, dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA), exNSAddr, UDP)

	q := dnswire.NewQuery(2, "wWw.ExAmPlE.cOm.", dnswire.TypeA)
	// Pack preserving the mixed case: NewQuery canonicalizes, so build
	// the question by hand.
	q.Question[0].Name = "wWw.ExAmPlE.cOm."
	wire := packPreservingCase(t, q)
	out, err := e.Respond(wire, exNSAddr, UDP)
	if err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); cs.Hits != 1 {
		t.Fatalf("mixed-case repeat did not hit: %+v", cs)
	}
	var resp dnswire.Message
	if err := resp.Unpack(out); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 1 || resp.Answer[0].Data.String() != "192.0.2.80" {
		t.Errorf("answer = %v", resp.Answer)
	}
	// The echoed question region must be byte-identical to the query's.
	qnameLen := len("www.example.com.") + 1
	if !bytes.Equal(out[12:12+qnameLen], wire[12:12+qnameLen]) {
		t.Errorf("question case not echoed: got % x want % x", out[12:12+qnameLen], wire[12:12+qnameLen])
	}
}

// packPreservingCase packs q without canonicalizing the question name's
// case (compression is case-preserving for the first occurrence, but
// CanonicalName lowercases, so splice the raw name in by hand).
func packPreservingCase(t *testing.T, q *dnswire.Message) []byte {
	t.Helper()
	name := q.Question[0].Name
	q.Question[0].Name = strings.ToLower(name)
	wire, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The question name starts at offset 12 as length-prefixed labels.
	off := 13
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		copy(wire[off:], label)
		off += len(label) + 1
	}
	return wire
}

// TestCacheCapEviction: the cache must never exceed the configured cap.
func TestCacheCapEviction(t *testing.T) {
	e := hierarchyEngine(t)
	e.SetResponseCacheCap(4)
	for i := 0; i < 10; i++ {
		q := dnswire.NewQuery(uint16(i), fmt.Sprintf("h%d.example.com.", i), dnswire.TypeA)
		respond(t, e, q, exNSAddr, UDP)
	}
	if cs := e.CacheStats(); cs.Entries > 4 {
		t.Errorf("entries = %d, want ≤ 4", cs.Entries)
	}
	// Disabling drops everything and stops caching.
	e.SetResponseCacheCap(0)
	if cs := e.CacheStats(); cs.Entries != 0 {
		t.Errorf("entries after disable = %d", cs.Entries)
	}
	respond(t, e, dnswire.NewQuery(99, "www.example.com.", dnswire.TypeA), exNSAddr, UDP)
	respond(t, e, dnswire.NewQuery(99, "www.example.com.", dnswire.TypeA), exNSAddr, UDP)
	if cs := e.CacheStats(); cs.Entries != 0 {
		t.Errorf("cache grew while disabled: %+v", cs)
	}
}

// TestCacheRefusedAccounting: REFUSED responses served from the cache
// must keep bumping the refused counter.
func TestCacheRefusedAccounting(t *testing.T) {
	e := hierarchyEngine(t)
	// The example view only hosts example.com., so an org. query has no
	// enclosing zone → REFUSED.
	q := dnswire.NewQuery(1, "www.example.org.", dnswire.TypeA)
	for i := 0; i < 3; i++ {
		resp := respond(t, e, q, exNSAddr, UDP)
		if resp.Header.Rcode != dnswire.RcodeRefused {
			t.Fatalf("rcode = %v", resp.Header.Rcode)
		}
	}
	if st := e.Stats(); st.Refused != 3 {
		t.Errorf("refused = %d, want 3", st.Refused)
	}
	if cs := e.CacheStats(); cs.Hits != 2 {
		t.Errorf("cache stats = %+v, want 2 hits", cs)
	}
}

// TestConcurrentRespondWithRouting hammers Respond from many goroutines
// — mixed qnames, transports, and DO bits — while views are concurrently
// added, exercising the routing snapshot, the shard hand-off and the
// caches under -race.
func TestConcurrentRespondWithRouting(t *testing.T) {
	e := hierarchyEngine(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				q := dnswire.NewQuery(uint16(i), fmt.Sprintf("h%d.example.com.", i%7), dnswire.TypeA)
				if g%2 == 0 {
					q.Edns = &dnswire.EDNS{UDPSize: 4096, DO: i%2 == 0}
				}
				tr := UDP
				if g%3 == 0 {
					tr = TCP
				}
				wire, err := q.Pack(nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Respond(wire, exNSAddr, tr); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Concurrent view registration must not disturb in-flight queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		z, err := zone.Parse(strings.NewReader(exZoneText), "example.com.")
		if err != nil {
			t.Error(err)
			return
		}
		if err := e.AddView(&View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if st := e.Stats(); st.Queries != 8*300 || st.Responses != 8*300 {
		t.Errorf("stats = %+v", st)
	}
	// Respond's callers share a few shards; they do not get one each.
	if n, max := len(*e.shards.Load()), runtime.GOMAXPROCS(0); n > max {
		t.Errorf("8 concurrent callers made %d shards, want ≤ GOMAXPROCS = %d", n, max)
	}
}

// TestNonUTF8QnameEchoed: a qname is octets, not text. A label holding
// bytes that are not UTF-8 used to be widened to U+FFFD on decode, so the
// miss path echoed a longer question than it was asked and a later cache
// hit patched the client's question over the wrong span. Miss and hit
// must both echo the question verbatim.
func TestNonUTF8QnameEchoed(t *testing.T) {
	e := hierarchyEngine(t)
	wire := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		3, 0xFF, 0xC0, 'x', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0,
		0, 1, 0, 1}
	question := wire[12:]
	for i, path := range []string{"miss", "hit"} {
		wire[1] = byte(i + 1)
		out, err := e.Respond(wire, exNSAddr, UDP)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) < len(wire) || !bytes.Equal(out[12:12+len(question)], question) {
			t.Fatalf("%s: question echoed as %x, asked %x", path, out[12:], question)
		}
		var resp dnswire.Message
		if err := resp.Unpack(out); err != nil {
			t.Fatalf("%s: response does not decode: %v", path, err)
		}
		if resp.Header.ID != uint16(i+1) || resp.Header.Rcode != dnswire.RcodeNXDomain {
			t.Errorf("%s: id %d rcode %v", path, resp.Header.ID, resp.Header.Rcode)
		}
	}
	if cs := e.CacheStats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 miss then 1 hit", cs)
	}
}

// TestRespCacheCollisionIsMiss forces every key onto one index hash. A
// lookup must compare the key bytes and miss rather than answer with the
// other question's record, and evicting an older record whose slot a
// newer one took over must leave the newer one findable.
func TestRespCacheCollisionIsMiss(t *testing.T) {
	c := newRespCache()
	c.hashMask = 0
	a, b := []byte("key-a"), []byte("key-b")
	respA, respB := bytes.Repeat([]byte{0xA}, 20), bytes.Repeat([]byte{0xB}, 20)
	c.put(c.hash(a), a, respA, respMeta{}, 8)
	if _, ok := c.get(c.hash(b), b); ok {
		t.Fatal("b hit a's record: the index hash collides and the key was not compared")
	}
	c.put(c.hash(b), b, respB, respMeta{rcode: dnswire.RcodeNXDomain}, 8)
	if _, ok := c.get(c.hash(a), a); ok {
		t.Fatal("a hit b's record")
	}
	c.evict() // a, the older record, which the index no longer names
	ent, ok := c.get(c.hash(b), b)
	if !ok || ent.rcode != dnswire.RcodeNXDomain || !bytes.Equal(ent.wire[2:], respB[2:]) || ent.wire[0]|ent.wire[1] != 0 {
		t.Fatalf("after evicting a: b = %+v, %v; want its own record with a zeroed ID", ent, ok)
	}
	c.evict()
	if _, ok := c.get(c.hash(b), b); ok || c.n != 0 || len(c.index) != 0 {
		t.Fatalf("empty cache: b found %v, %d records, %d index slots", ok, c.n, len(c.index))
	}
}

// TestRespCacheWrapBoundary fills the starting ring exactly with four
// 256-byte records, so the fifth wraps to offset 0 over the evicted
// first, and a 257-byte sixth must evict two more records, not write
// one byte into the third.
func TestRespCacheWrapBoundary(t *testing.T) {
	c := newRespCache()
	key := func(i int) []byte { return []byte{'k', byte('0' + i)} }
	resp := func(n int) []byte { return make([]byte, n-recHdr-2) }
	for i := 1; i <= 5; i++ {
		c.put(c.hash(key(i)), key(i), resp(256), respMeta{}, 4)
	}
	if len(c.ring) != ringMinBytes || !c.wrapped || c.head != 256 || c.tail != 256 || c.n != 4 {
		t.Fatalf("after five 256-byte records: ring %d, wrapped %v, head %d, tail %d, %d records", len(c.ring), c.wrapped, c.head, c.tail, c.n)
	}
	if ev := c.put(c.hash(key(6)), key(6), resp(257), respMeta{}, 4); ev != 2 {
		t.Errorf("257-byte record into a 256-byte gap evicted %d records, want 2", ev)
	}
	for i := 1; i <= 6; i++ {
		_, ok := c.get(c.hash(key(i)), key(i))
		if want := i == 4 || i == 5 || i == 6; ok != want {
			t.Errorf("record %d found %v, want %v", i, ok, want)
		}
	}
}

// TestRespCacheFIFOModel drives one cache with random record sizes (up to
// many times the ring's starting size), caps and hash masks (narrow
// masks force collisions), and checks after every insert against a
// model: the cache holds the most recent inserts, as many as it counts,
// among those a key is found, with its own bytes and metadata, iff no
// newer one shares its hash, and the index has one slot per live hash.
func TestRespCacheFIFOModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 40; trial++ {
		c := newRespCache()
		if trial%2 == 1 {
			c.hashMask = uint64(rng.IntN(8))
		}
		capacity := 1 + rng.IntN(40)
		type rec struct {
			key, resp []byte
			meta      respMeta
		}
		var inserted []rec
		for i := 0; i < 300; i++ {
			key := []byte(fmt.Sprintf("t%d-k%d", trial, i))
			resp := make([]byte, 12+rng.IntN(3000))
			for j := range resp {
				resp[j] = byte(rng.Uint32())
			}
			meta := respMeta{truncated: rng.IntN(2) == 0, refused: rng.IntN(2) == 0, rcode: dnswire.Rcode(rng.IntN(16))}
			if _, ok := c.get(c.hash(key), key); ok {
				t.Fatalf("trial %d: key %q found before it was inserted", trial, key)
			}
			c.put(c.hash(key), key, resp, meta, capacity)
			inserted = append(inserted, rec{key, resp, meta})
			if c.n < 1 || c.n > capacity || c.n > len(inserted) {
				t.Fatalf("trial %d insert %d: %d records, cap %d", trial, i, c.n, capacity)
			}
			live := inserted[len(inserted)-c.n:]
			newest := map[uint64]int{}
			for j, r := range live {
				newest[c.hash(r.key)] = j
			}
			if len(c.index) != len(newest) {
				t.Fatalf("trial %d insert %d: %d index slots for %d distinct live hashes", trial, i, len(c.index), len(newest))
			}
			for j, r := range inserted {
				ent, ok := c.get(c.hash(r.key), r.key)
				k := j - (len(inserted) - c.n)
				want := k >= 0 && newest[c.hash(r.key)] == k
				if ok != want {
					t.Fatalf("trial %d insert %d: key %d found=%v, want %v (%d records, cap %d)", trial, i, j, ok, want, c.n, capacity)
				}
				if ok && (!bytes.Equal(ent.wire[2:], r.resp[2:]) || ent.wire[0]|ent.wire[1] != 0 ||
					ent.truncated != r.meta.truncated || ent.refused != r.meta.refused || ent.rcode != r.meta.rcode) {
					t.Fatalf("trial %d insert %d: key %d came back with another record's bytes or metadata", trial, i, j)
				}
			}
		}
	}
}
