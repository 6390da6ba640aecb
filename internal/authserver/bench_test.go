package authserver

import (
	"fmt"
	"net/netip"
	"testing"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/obs"
	"ldplayer/internal/zone"
)

// BenchmarkEngineRespondAnswer measures the full query→response path of
// the meta-DNS engine — view selection, lookup, packing — on an
// authoritative answer: the per-query server cost behind Figure 9's
// throughput ceiling.
func BenchmarkEngineRespondAnswer(b *testing.B) {
	e := hierarchyEngine(b)
	wire, err := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRespondAnswerInstrumented is BenchmarkEngineRespondAnswer
// with the full observability layer enabled at the default 1-in-64
// sampling: dimensioned counters on every query, latency timing and a
// lifecycle span on sampled ones. The delta against the uninstrumented
// benchmark is the total observability overhead (budget: <10%).
func BenchmarkEngineRespondAnswerInstrumented(b *testing.B) {
	e := hierarchyEngine(b)
	e.Instrument(obs.NewRegistry(), obs.NewTracer(1024, 1), DefaultObsSampleEvery)
	wire, err := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRespondAnswerSampledAlways is the worst case: every query
// pays two time.Now calls and a pooled span.
func BenchmarkEngineRespondAnswerSampledAlways(b *testing.B) {
	e := hierarchyEngine(b)
	e.Instrument(obs.NewRegistry(), obs.NewTracer(1024, 1), 1)
	wire, err := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRespondReferral measures the referral path from the root
// view (the dominant response class in B-Root replay).
func BenchmarkEngineRespondReferral(b *testing.B) {
	e := hierarchyEngine(b)
	wire, err := dnswire.NewQuery(2, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Respond(wire, rootNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRespondDNSSEC measures a DO-bit query against the same
// engine (signature-attachment path).
func BenchmarkEngineRespondDNSSEC(b *testing.B) {
	e := hierarchyEngine(b)
	q := dnswire.NewQuery(3, "www.example.com.", dnswire.TypeA)
	q.Edns = &dnswire.EDNS{UDPSize: 4096, DO: true}
	wire, err := q.Pack(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRespondCached measures the packed-response fast path:
// repeated identical questions are answered from the cache by patching a
// copy of the stored wire image (≤1 alloc/op — the caller-owned copy).
func BenchmarkEngineRespondCached(b *testing.B) {
	e := hierarchyEngine(b)
	wire, err := dnswire.NewQuery(4, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Respond(wire, exNSAddr, UDP); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Respond(wire, exNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cs := e.CacheStats(); cs.Hits < int64(b.N) {
		b.Fatalf("cache hits = %d, want ≥ %d", cs.Hits, b.N)
	}
}

// BenchmarkEngineRespondManyZones exercises zone selection in a view
// hosting 549 zones (the paper's Rec-17 recursive experiment scale).
// With the origin suffix map this costs O(qname labels), independent of
// the zone count; the old linear scan was O(zones) per query.
func BenchmarkEngineRespondManyZones(b *testing.B) {
	zones := make([]*zone.Zone, 0, 549)
	for i := 0; i < 549; i++ {
		origin := fmt.Sprintf("z%03d.example.", i)
		z := zone.New(origin)
		for _, rr := range []dnswire.RR{
			{Name: origin, Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.SOA{
				MName: "ns." + origin, RName: "root." + origin, Serial: 1,
				Refresh: 1, Retry: 1, Expire: 1, Minimum: 300}},
			{Name: origin, Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.NS{Host: "ns." + origin}},
			{Name: "www." + origin, Class: dnswire.ClassINET, TTL: 300,
				Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}},
		} {
			if err := z.Add(rr); err != nil {
				b.Fatal(err)
			}
		}
		zones = append(zones, z)
	}
	e := NewEngine()
	e.SetResponseCacheCap(0) // isolate routing + lookup, not the cache
	if err := e.AddView(&View{Name: "default", Zones: zones}); err != nil {
		b.Fatal(err)
	}
	queries := make([][]byte, 64)
	for i := range queries {
		wire, err := dnswire.NewQuery(uint16(i), fmt.Sprintf("www.z%03d.example.", i*7%549), dnswire.TypeA).Pack(nil)
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = wire
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Respond(queries[i%len(queries)], clientAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardRespondMiss measures what most of a B-Root replay costs
// the server: a question never seen before takes the whole miss path —
// unpack, zone lookup (NXDOMAIN with DO from the root), pack — and its
// response is inserted into a shard cache that is already full. Every
// iteration asks a new name, so unlike the EngineRespond benchmarks above
// (one question repeated: hits, unless they turn the cache off) this one
// cannot hit.
func BenchmarkShardRespondMiss(b *testing.B) {
	e := hierarchyEngine(b)
	sh := e.NewShard()
	slab := make([]byte, 0, 4096)
	junk := newJunkQuery(b)
	for i := 0; i < DefaultResponseCacheCap; i++ { // fill, so the timed inserts evict
		if _, err := sh.AppendRespond(slab[:0], junk.set(-1-i), rootNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sh.AppendRespond(slab[:0], junk.set(i), rootNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cs := e.CacheStats(); cs.Hits != 0 {
		b.Fatalf("cache hits = %d on a stream of distinct questions", cs.Hits)
	}
}

// BenchmarkShardRespondHit is the cache-hit path as a serve loop runs it:
// one shard held for the whole run (no Engine.Respond borrow), a reused
// output slab, and about 1.1 k distinct questions asked round-robin — a
// working set well inside the cache but wider than one question, so the
// index and ring are read across more than a few cache lines.
func BenchmarkShardRespondHit(b *testing.B) {
	e := hierarchyEngine(b)
	sh := e.NewShard()
	slab := make([]byte, 0, 4096)
	const questions = 1100
	queries := make([][]byte, questions)
	for i := range queries {
		queries[i] = append([]byte(nil), newJunkQuery(b).set(i)...)
		if _, err := sh.AppendRespond(slab[:0], queries[i], rootNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sh.AppendRespond(slab[:0], queries[i%questions], rootNSAddr, UDP); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cs := e.CacheStats(); cs.Misses != questions || cs.Hits < int64(b.N) {
		b.Fatalf("cache stats = %+v, want %d misses and every timed query a hit", cs, questions)
	}
}
