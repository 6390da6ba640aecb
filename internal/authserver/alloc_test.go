package authserver

import (
	"bytes"
	"net/netip"
	"testing"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/obs"
)

// TestRespondCachedAllocs pins the cache-hit fast path at ≤1 allocation
// per query (the caller-owned response copy). A regression here means a
// future change re-introduced per-query garbage on the hot path.
func TestRespondCachedAllocs(t *testing.T) {
	e := hierarchyEngine(t)
	wire, err := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache.
	if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("cached Respond allocs/op = %.2f, want ≤ 1", allocs)
	}
	if cs := e.CacheStats(); cs.Hits == 0 {
		t.Fatal("fast path never hit the cache")
	}
}

// TestRespondCachedAllocsInstrumented pins the same guarantee with full
// observability enabled at the worst case — every query sampled, timed,
// and traced (sampleEvery=1). Spans are pooled and the ring stores span
// values, so the steady state stays at the one caller-owned response copy.
func TestRespondCachedAllocsInstrumented(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; alloc counts are meaningless")
	}
	e := hierarchyEngine(t)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256, 1)
	e.Instrument(reg, tracer, 1)
	wire, err := dnswire.NewQuery(3, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache and the span pool.
	for i := 0; i < 16; i++ {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("instrumented cached Respond allocs/op = %.2f, want ≤ 1", allocs)
	}
	if tracer.Total() == 0 {
		t.Fatal("tracer captured no spans")
	}
	if s, ok := reg.Find("metadns_respond_latency_ns", ""); !ok || s.Hist == nil || s.Hist.Count == 0 {
		t.Fatal("latency histogram recorded nothing")
	}
}

// TestRespondCachedAllocsEDNS covers the fast path's OPT parse too.
func TestRespondCachedAllocsEDNS(t *testing.T) {
	e := hierarchyEngine(t)
	q := dnswire.NewQuery(2, "www.example.com.", dnswire.TypeA)
	q.Edns = &dnswire.EDNS{UDPSize: 4096, DO: true}
	wire, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("cached EDNS Respond allocs/op = %.2f, want ≤ 1", allocs)
	}
}

// missQuery packs one question for the miss-path guards; do < 0 sends no
// OPT record, 0 an OPT with DO clear, 1 with DO set.
func missQuery(t testing.TB, name string, qtype dnswire.Type, do int) []byte {
	t.Helper()
	q := dnswire.NewQuery(7, name, qtype)
	if do >= 0 {
		q.Edns = &dnswire.EDNS{UDPSize: 4096, DO: do == 1}
	}
	wire, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestShardRespondMissAllocs pins the cache-miss path — unpack, zone
// lookup, pack — at no allocation for each outcome B-Root replay is made
// of: the decoded qname goes into the scratch message's name chunk,
// whose refills (one per ~4 KiB of names) AllocsPerRun's per-run floor
// amortizes away. The response cache is off, so every call takes the
// path; the guards above and the EngineRespond benchmarks repeat one
// question and only ever see hits.
func TestShardRespondMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; alloc counts are meaningless")
	}
	e := hierarchyEngine(t)
	e.SetResponseCacheCap(0)
	sh := e.NewShard()
	slab := make([]byte, 0, 4096)
	for _, c := range []struct {
		outcome string
		name    string
		qtype   dnswire.Type
		src     netip.Addr
		rcode   dnswire.Rcode
	}{
		{"NXDOMAIN", "nope.example.com.", dnswire.TypeA, exNSAddr, dnswire.RcodeNXDomain},
		{"referral", "www.example.com.", dnswire.TypeA, rootNSAddr, dnswire.RcodeNoError},
		{"NODATA", "www.example.com.", dnswire.TypeMX, exNSAddr, dnswire.RcodeNoError},
		{"answer", "www.example.com.", dnswire.TypeA, exNSAddr, dnswire.RcodeNoError},
	} {
		for do := -1; do <= 1; do++ {
			wire := missQuery(t, c.name, c.qtype, do)
			var out []byte
			allocs := testing.AllocsPerRun(500, func() {
				var err error
				if out, err = sh.AppendRespond(slab[:0], wire, c.src, UDP); err != nil {
					t.Fatal(err)
				}
			})
			if len(out) < 12 || dnswire.Rcode(out[3]&0xF) != c.rcode {
				t.Errorf("%s do=%d: response %x, want rcode %v", c.outcome, do, out, c.rcode)
			}
			if allocs > 0 {
				t.Errorf("%s do=%d: miss-path allocs/query = %.2f, want 0", c.outcome, do, allocs)
			}
		}
	}
	if cs := e.CacheStats(); cs.Hits != 0 || cs.Entries != 0 {
		t.Errorf("cache disabled, yet stats = %+v", cs)
	}
}

// junkQuery is a root-zone query whose single 8-hex-digit label set
// rewrites in place, so a stream of them never repeats a question — the
// junk-name share of B-Root traffic that no response cache can absorb.
type junkQuery struct{ wire []byte }

func newJunkQuery(t testing.TB) junkQuery {
	return junkQuery{wire: missQuery(t, "00000000.", dnswire.TypeA, 1)}
}

func (j junkQuery) set(i int) []byte {
	const hex = "0123456789abcdef"
	for d := 0; d < 8; d++ {
		j.wire[13+d] = hex[(i>>(4*d))&0xF]
	}
	return j.wire
}

// TestShardRespondMissInsertAllocs pins a miss with the cache on and
// filling: the ring's doublings, the index map's growth and the name
// chunk's refills, amortized over the inserts, are all it allocates.
func TestShardRespondMissInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; alloc counts are meaningless")
	}
	e := hierarchyEngine(t)
	sh := e.NewShard()
	slab := make([]byte, 0, 4096)
	junk := newJunkQuery(t)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		if _, err := sh.AppendRespond(slab[:0], junk.set(i), rootNSAddr, UDP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("miss+insert allocs/query = %.2f, want 0", allocs)
	}
	if cs := e.CacheStats(); cs.Hits != 0 || cs.Entries != int64(i) {
		t.Errorf("after %d distinct questions: cache stats = %+v", i, cs)
	}
}

// TestShardRespondMissEvictAllocs pins the steady state of a B-Root
// replay: a full cache, and every miss inserts one response over the
// oldest. That allocates nothing — the ring is not resized and the
// index does not grow — and keeps the cache at its cap, one eviction
// per insert.
func TestShardRespondMissEvictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; alloc counts are meaningless")
	}
	e := hierarchyEngine(t)
	sh := e.NewShard()
	slab := make([]byte, 0, 4096)
	junk := newJunkQuery(t)
	i := 0
	for ; i < DefaultResponseCacheCap; i++ {
		if _, err := sh.AppendRespond(slab[:0], junk.set(i), rootNSAddr, UDP); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5000, func() {
		i++
		if _, err := sh.AppendRespond(slab[:0], junk.set(i), rootNSAddr, UDP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("miss+evict allocs/query = %.2f, want 0", allocs)
	}
	cs := e.CacheStats()
	if inserts := int64(i); cs.Hits != 0 || cs.Misses != inserts ||
		cs.Entries != DefaultResponseCacheCap || cs.Evictions != inserts-DefaultResponseCacheCap {
		t.Errorf("after %d distinct questions: cache stats = %+v, want %d entries and %d evictions",
			i, cs, DefaultResponseCacheCap, inserts-DefaultResponseCacheCap)
	}
}

// TestCacheHitIdenticalToMiss asks each question three times: of an
// engine with the cache off, and twice (miss, then hit) of one with it
// on. All three responses must be the same bytes once the ID is masked —
// the hit path patches a stored image, the miss path builds from the
// zone, and nothing may tell them apart. FuzzRespondHitVsMiss asks the
// same of arbitrary bytes.
func TestCacheHitIdenticalToMiss(t *testing.T) {
	cold, warm := hierarchyEngine(t), hierarchyEngine(t)
	cold.SetResponseCacheCap(0)
	for _, src := range []netip.Addr{rootNSAddr, comNSAddr, exNSAddr, clientAddr} {
		for _, name := range []string{".", "com.", "example.com.", "www.example.com.",
			"ns1.example.com.", "nope.example.com.", "a.b.nope.example.com.", "junk.", "a.gtld-servers.net."} {
			for _, qtype := range []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeDS, dnswire.TypeMX, dnswire.TypeANY} {
				for do := -1; do <= 1; do++ {
					for _, tr := range []Transport{UDP, TCP} {
						wire := missQuery(t, name, qtype, do)
						var got [3][]byte
						for i, e := range []*Engine{cold, warm, warm} {
							wire[0], wire[1] = byte(i+1), byte(i+1)
							out, err := e.Respond(wire, src, tr)
							if err != nil {
								t.Fatal(err)
							}
							if out[0] != wire[0] || out[1] != wire[1] {
								t.Fatalf("%s %s: response ID %x, query ID %x", name, qtype, out[:2], wire[:2])
							}
							out[0], out[1] = 0, 0
							got[i] = out
						}
						if !bytes.Equal(got[0], got[1]) || !bytes.Equal(got[1], got[2]) {
							t.Fatalf("%s %s do=%d %v from %v:\n cache off %x\n miss      %x\n hit       %x",
								name, qtype, do, tr, src, got[0], got[1], got[2])
						}
					}
				}
			}
		}
	}
	if cs := warm.CacheStats(); cs.Hits == 0 || cs.Hits != cs.Misses {
		t.Errorf("cache stats = %+v, want every question one miss then one hit", cs)
	}
}
