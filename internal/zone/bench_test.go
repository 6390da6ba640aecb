package zone

import (
	"fmt"
	"net/netip"
	"testing"

	"ldplayer/internal/dnswire"
)

// benchZone builds a 10k-name zone with delegations and a wildcard.
func benchZone(b *testing.B) *Zone {
	b.Helper()
	z := New("example.com.")
	must := func(rr dnswire.RR) {
		if err := z.Add(rr); err != nil {
			b.Fatal(err)
		}
	}
	must(dnswire.RR{Name: "example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.SOA{
		MName: "ns1.example.com.", RName: "host.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300}})
	must(dnswire.RR{Name: "example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.NS{Host: "ns1.example.com."}})
	must(dnswire.RR{Name: "ns1.example.com.", Class: dnswire.ClassINET, TTL: 3600,
		Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})}})
	must(dnswire.RR{Name: "*.wild.example.com.", Class: dnswire.ClassINET, TTL: 300,
		Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 99})}})
	for i := 0; i < 10000; i++ {
		must(dnswire.RR{Name: fmt.Sprintf("host%d.example.com.", i), Class: dnswire.ClassINET, TTL: 300,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})}})
	}
	for i := 0; i < 500; i++ {
		sub := fmt.Sprintf("sub%d.example.com.", i)
		must(dnswire.RR{Name: sub, Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.NS{Host: "ns." + sub}})
		must(dnswire.RR{Name: "ns." + sub, Class: dnswire.ClassINET, TTL: 3600,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 99, byte(i >> 8), byte(i)})}})
	}
	return z
}

// benchNames formats n query names ahead of the timed loop, so the
// benchmarks below time and count allocations inside Lookup only.
func benchNames(format string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
	}
	return names
}

// benchLookup times Lookup over names in rotation, expecting want.
func benchLookup(b *testing.B, names []string, opts LookupOptions, want AnswerKind) {
	z := benchZone(b)
	z.Compile()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := z.Lookup(names[i%len(names)], dnswire.TypeA, opts)
		if res.Kind != want {
			b.Fatal(res.Kind)
		}
	}
}

// BenchmarkLookupAnswer measures positive lookups in a 10k-name zone.
func BenchmarkLookupAnswer(b *testing.B) {
	benchLookup(b, benchNames("host%d.example.com.", 10000), LookupOptions{}, Answer)
}

// BenchmarkLookupReferral measures delegation lookups.
func BenchmarkLookupReferral(b *testing.B) {
	benchLookup(b, benchNames("deep.sub%d.example.com.", 500), LookupOptions{}, Referral)
}

// BenchmarkLookupNXDomain measures the negative path (SOA attach).
func BenchmarkLookupNXDomain(b *testing.B) {
	benchLookup(b, benchNames("missing%d.example.com.", 4096), LookupOptions{}, NXDomain)
}

// BenchmarkLookupNXDomainDNSSEC is the negative path with the DO bit set,
// which also looks for the NSEC covering the name. It must not depend on
// the size of the zone: the map-walking Lookup scanned every RRset here
// (≈ 96 µs and 12 allocations in this 10k-name zone).
func BenchmarkLookupNXDomainDNSSEC(b *testing.B) {
	benchLookup(b, benchNames("missing%d.example.com.", 4096), LookupOptions{DNSSEC: true}, NXDomain)
}

// BenchmarkLookupWildcard measures wildcard synthesis.
func BenchmarkLookupWildcard(b *testing.B) {
	benchLookup(b, benchNames("x%d.wild.example.com.", 4096), LookupOptions{}, Answer)
}

// BenchmarkZoneAddLargeRRset loads one huge RRset (the pattern that made
// duplicate detection O(n²) before the per-key dedup set): time per op
// must stay flat as the set grows.
func BenchmarkZoneAddLargeRRset(b *testing.B) {
	z := New("example.com.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rr := dnswire.RR{Name: "fat.example.com.", Class: dnswire.ClassINET, TTL: 60,
			Data: dnswire.TXT{Strings: []string{fmt.Sprintf("record-%d", i)}}}
		if err := z.Add(rr); err != nil {
			b.Fatal(err)
		}
	}
}
