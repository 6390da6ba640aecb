package zone_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"ldplayer/internal/dnssec"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/zone"
)

// Differential test of the compiled-index Lookup against the map-walking
// implementation it replaced (lookup_ref_test.go). Zones are drawn from a
// four-letter label alphabet so that cuts, wildcards, CNAMEs, glue and
// empty non-terminals land on top of and underneath one another.

var diffTypes = []dnswire.Type{
	dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypeSOA,
	dnswire.TypeMX, dnswire.TypeTXT, dnswire.TypeDS, dnswire.TypeRRSIG, dnswire.TypeNSEC,
	dnswire.TypeDNSKEY, dnswire.TypeANY,
}

var diffLabels = []string{"a", "b", "c", "w", "*"}

// diffName draws a name of 1..depth labels below origin.
func diffName(rng *rand.Rand, origin string, depth int) string {
	var sb strings.Builder
	for i, n := 0, 1+rng.Intn(depth); i < n; i++ {
		sb.WriteString(diffLabels[rng.Intn(len(diffLabels))])
		sb.WriteByte('.')
	}
	if origin != "." {
		sb.WriteString(origin)
	}
	return sb.String()
}

func diffAddr(rng *rand.Rand) dnswire.RData {
	if rng.Intn(3) == 0 {
		var b [16]byte
		rng.Read(b[:])
		b[0] = 0x20
		return dnswire.AAAA{Addr: netip.AddrFrom16(b)}
	}
	var b [4]byte
	rng.Read(b[:])
	return dnswire.A{Addr: netip.AddrFrom4(b)}
}

// diffZone builds one random zone; signed ones carry a dnssec NSEC chain.
func diffZone(t testing.TB, rng *rand.Rand, signed bool) *zone.Zone {
	t.Helper()
	origin := []string{".", "example.", "example.com."}[rng.Intn(3)]
	z := zone.New(origin)
	add := func(name string, ttl uint32, data dnswire.RData) {
		t.Helper()
		if err := z.Add(dnswire.RR{Name: name, Class: dnswire.ClassINET, TTL: ttl, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	sub := func(label string) string {
		if origin == "." {
			return label + "."
		}
		return label + "." + origin
	}
	if rng.Intn(8) != 0 { // now and then a zone without a SOA
		add(origin, 3600, dnswire.SOA{MName: sub("ns"), RName: sub("host"), Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 300})
	}
	add(origin, 3600, dnswire.NS{Host: sub("ns")})
	add(sub("ns"), 3600, diffAddr(rng))

	for i, n := 0, 5+rng.Intn(40); i < n; i++ {
		name := diffName(rng, origin, 4)
		switch rng.Intn(10) {
		case 0, 1, 2:
			add(name, 300, diffAddr(rng))
		case 3:
			add(name, 300, dnswire.TXT{Strings: []string{fmt.Sprint(i)}})
		case 4:
			add(name, 300, dnswire.MX{Preference: 10, Host: diffName(rng, origin, 2)})
		case 5, 6: // a cut: glue in bailiwick, elsewhere in the zone, and outside it
			add(name, 3600, dnswire.NS{Host: "ns." + name})
			add("ns."+name, 3600, diffAddr(rng))
			if rng.Intn(2) == 0 {
				host := diffName(rng, origin, 3)
				add(name, 3600, dnswire.NS{Host: host})
				add(host, 3600, diffAddr(rng))
			}
			if rng.Intn(3) == 0 {
				add(name, 3600, dnswire.NS{Host: "ns.elsewhere.invalid."})
			}
			if rng.Intn(2) == 0 {
				add(name, 3600, dnswire.DS{KeyTag: uint16(i), Algorithm: 8, DigestType: 2, Digest: []byte{byte(i)}})
			}
		case 7: // a CNAME into the zone (existing name or not) or out of it
			target := diffName(rng, origin, 3)
			if rng.Intn(4) == 0 {
				target = "target.elsewhere.invalid."
			}
			add(name, 60, dnswire.CNAME{Target: target})
		case 8: // a wildcard, sometimes an alias
			name = "*." + name
			if rng.Intn(3) == 0 {
				add(name, 60, dnswire.CNAME{Target: diffName(rng, origin, 3)})
			} else {
				add(name, 60, diffAddr(rng))
			}
		case 9: // a chain one hop longer than Lookup follows, ending in data or in a loop
			hops := 1 + rng.Intn(zone.MaxCNAMEChain+1)
			for h := 0; h < hops; h++ {
				add(fmt.Sprintf("c%d-%d.%s", i, h, name), 60, dnswire.CNAME{Target: fmt.Sprintf("c%d-%d.%s", i, h+1, name)})
			}
			last := fmt.Sprintf("c%d-%d.%s", i, hops, name)
			if rng.Intn(3) == 0 {
				add(last, 60, dnswire.CNAME{Target: fmt.Sprintf("c%d-0.%s", i, name)})
			} else {
				add(last, 60, diffAddr(rng))
			}
		}
	}
	if signed {
		if err := dnssec.SignZone(z, dnssec.Config{ZSKBits: 1024, KSKBits: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	return z
}

// diffProbes returns the names to ask z about: every owner, a child and a
// grandchild of each (below cuts, under wildcards, past the closest
// encloser), mixed case, fresh random names, and a name outside the zone.
func diffProbes(rng *rand.Rand, z *zone.Zone) []string {
	probes := []string{z.Origin, "outside.invalid.", "A.B." + strings.ToUpper(z.Origin)}
	for _, name := range z.Names() {
		probes = append(probes, name, "a."+name, "w.b."+name)
		if strings.HasPrefix(name, "*.") {
			probes = append(probes, "x"+name[1:], "x.y"+name[1:])
		}
	}
	for i := 0; i < 20; i++ {
		probes = append(probes, diffName(rng, z.Origin, 5))
	}
	return probes
}

// canonANY sorts an ANY answer: the reference emits a node's RRsets in
// map-iteration order, the index in ascending type order.
func canonANY(rrs []dnswire.RR) []dnswire.RR {
	out := append([]dnswire.RR(nil), rrs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Type() != out[j].Type() {
			return out[i].Type() < out[j].Type()
		}
		return out[i].String() < out[j].String()
	})
	return out
}

func sameRRs(a, b []dnswire.RR) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// diffOne compares one probe and reports the first difference.
func diffOne(z *zone.Zone, qname string, qtype dnswire.Type, do bool) error {
	opts := zone.LookupOptions{DNSSEC: do}
	got, want := z.Lookup(qname, qtype, opts), z.RefLookup(qname, qtype, opts)
	if qtype == dnswire.TypeANY {
		got.Records, want.Records = canonANY(got.Records), canonANY(want.Records)
	}
	switch {
	case got.Kind != want.Kind:
		return fmt.Errorf("%s %s do=%v: kind %v, reference %v", qname, qtype, do, got.Kind, want.Kind)
	case !sameRRs(got.Records, want.Records):
		return fmt.Errorf("%s %s do=%v: answer\n got %v\nwant %v", qname, qtype, do, got.Records, want.Records)
	case !sameRRs(got.Authority, want.Authority):
		return fmt.Errorf("%s %s do=%v: authority\n got %v\nwant %v", qname, qtype, do, got.Authority, want.Authority)
	case !sameRRs(got.Additional, want.Additional):
		return fmt.Errorf("%s %s do=%v: additional\n got %v\nwant %v", qname, qtype, do, got.Additional, want.Additional)
	}
	return nil
}

// diffAll runs every (probe, qtype, DNSSEC) combination against z.
func diffAll(t *testing.T, z *zone.Zone, probes []string) {
	t.Helper()
	for _, qname := range probes {
		for _, qtype := range diffTypes {
			for _, do := range []bool{false, true} {
				if err := diffOne(z, qname, qtype, do); err != nil {
					t.Fatalf("zone %s:\n%v", z.Origin, err)
				}
			}
		}
	}
}

func TestLookupDifferential(t *testing.T) {
	kinds := map[zone.AnswerKind]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		z := diffZone(t, rng, seed%2 == 0)
		probes := diffProbes(rng, z)
		diffAll(t, z, probes)
		for _, qname := range probes {
			kinds[z.Lookup(qname, dnswire.TypeA, zone.LookupOptions{}).Kind]++
		}

		// An Add after a Lookup must be visible to the next Lookup.
		fresh := "fresh." + z.Origin
		if z.Origin == "." {
			fresh = "fresh."
		}
		for _, name := range []string{fresh, probes[rng.Intn(len(probes))]} {
			if z.Lookup(name, dnswire.TypeTXT, zone.LookupOptions{}).Kind == zone.OutOfZone {
				continue
			}
			if err := z.Add(dnswire.RR{Name: name, Class: dnswire.ClassINET, TTL: 1, Data: dnswire.TXT{Strings: []string{"added"}}}); err != nil {
				t.Fatal(err)
			}
			if err := diffOne(z, name, dnswire.TypeTXT, false); err != nil {
				t.Fatalf("after Add: %v", err)
			}
		}
		if res := z.Lookup(fresh, dnswire.TypeTXT, zone.LookupOptions{}); res.Kind != zone.Answer && res.Kind != zone.Referral {
			t.Fatalf("zone %s: %s added after a Lookup is not served: %v", z.Origin, fresh, res.Kind)
		}
		// fresh owns no RRSIG even in a signed zone, so DO answers for it
		// exercise the borrowed-from-the-sibling-wildcard signatures.
		diffAll(t, z, append(probes, fresh, "a."+fresh))
	}
	for k := zone.Answer; k <= zone.OutOfZone; k++ {
		if kinds[k] == 0 {
			t.Errorf("no probe ended in %v: the generator no longer covers it", k)
		}
	}
}

// TestLookupResultAppendIsSafe pins the aliasing contract: results are
// views of shared zone data, and appending to them — from many goroutines
// at once — must not disturb what later lookups return.
func TestLookupResultAppendIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z := diffZone(t, rng, true)
	probes := diffProbes(rng, z)
	junk := dnswire.RR{Name: "junk.", Class: dnswire.ClassINET, TTL: 1, Data: dnswire.TXT{Strings: []string{"junk"}}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, qname := range probes {
				res := z.Lookup(qname, diffTypes[(i+g)%len(diffTypes)], zone.LookupOptions{DNSSEC: (i+g)%2 == 0})
				res.Records = append(res.Records, junk)
				res.Authority = append(res.Authority, junk)
				res.Additional = append(res.Additional, junk)
			}
		}(g)
	}
	wg.Wait()
	diffAll(t, z, probes)
}

// FuzzLookupDifferential drives arbitrary query names, types and DO bits
// at one unsigned and one signed zone. Any name must be answered without
// a panic; syntactically valid ones must match the reference.
func FuzzLookupDifferential(f *testing.F) {
	zones := []*zone.Zone{
		diffZone(f, rand.New(rand.NewSource(3)), false),
		diffZone(f, rand.New(rand.NewSource(4)), true),
	}
	for _, z := range zones {
		for i, name := range z.Names() {
			f.Add([]byte(name), uint16(diffTypes[i%len(diffTypes)]), i%2 == 0)
			f.Add([]byte("x."+name), uint16(dnswire.TypeA), i%2 == 1)
		}
	}
	f.Add([]byte("a..b."), uint16(1), true)
	f.Add([]byte(""), uint16(255), false)
	f.Fuzz(func(t *testing.T, qname []byte, qtype uint16, do bool) {
		for _, z := range zones {
			if !dnswire.ValidName(string(qname)) {
				z.Lookup(string(qname), dnswire.Type(qtype), zone.LookupOptions{DNSSEC: do})
				continue
			}
			if err := diffOne(z, string(qname), dnswire.Type(qtype), do); err != nil {
				t.Fatalf("zone %s:\n%v", z.Origin, err)
			}
		}
	})
}
