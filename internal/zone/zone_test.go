package zone

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"ldplayer/internal/dnswire"
)

func addr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// testZone builds example.com. with a delegation, wildcard, CNAME and
// standard apex records.
func testZone(t *testing.T) *Zone {
	t.Helper()
	z := New("example.com.")
	rrs := []dnswire.RR{
		{Name: "example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.SOA{
			MName: "ns1.example.com.", RName: "hostmaster.example.com.",
			Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
		{Name: "example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.NS{Host: "ns1.example.com."}},
		{Name: "example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.NS{Host: "ns2.example.com."}},
		{Name: "ns1.example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.A{Addr: addr(t, "192.0.2.1")}},
		{Name: "ns2.example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.A{Addr: addr(t, "192.0.2.2")}},
		{Name: "www.example.com.", Class: dnswire.ClassINET, TTL: 300, Data: dnswire.A{Addr: addr(t, "192.0.2.80")}},
		{Name: "www.example.com.", Class: dnswire.ClassINET, TTL: 300, Data: dnswire.AAAA{Addr: addr(t, "2001:db8::80")}},
		{Name: "alias.example.com.", Class: dnswire.ClassINET, TTL: 300, Data: dnswire.CNAME{Target: "www.example.com."}},
		{Name: "*.wild.example.com.", Class: dnswire.ClassINET, TTL: 60, Data: dnswire.A{Addr: addr(t, "192.0.2.99")}},
		// Delegation to sub.example.com. with in-bailiwick glue.
		{Name: "sub.example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.NS{Host: "ns.sub.example.com."}},
		{Name: "ns.sub.example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.A{Addr: addr(t, "192.0.2.53")}},
		{Name: "example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.MX{Preference: 10, Host: "mail.example.com."}},
		{Name: "mail.example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.A{Addr: addr(t, "192.0.2.25")}},
	}
	if err := z.AddAll(rrs); err != nil {
		t.Fatal(err)
	}
	return z
}

func TestLookupAnswer(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("www.example.com.", dnswire.TypeA, LookupOptions{})
	if res.Kind != Answer {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Records) != 1 || res.Records[0].Data.String() != "192.0.2.80" {
		t.Errorf("records = %v", res.Records)
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("WWW.Example.COM.", dnswire.TypeA, LookupOptions{})
	if res.Kind != Answer || len(res.Records) != 1 {
		t.Errorf("kind = %v records = %v", res.Kind, res.Records)
	}
}

func TestLookupCNAMEChase(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("alias.example.com.", dnswire.TypeA, LookupOptions{})
	if res.Kind != Answer {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %v", res.Records)
	}
	if res.Records[0].Type() != dnswire.TypeCNAME || res.Records[1].Type() != dnswire.TypeA {
		t.Errorf("chase order wrong: %v", res.Records)
	}
	// Direct CNAME query returns just the CNAME.
	res = z.Lookup("alias.example.com.", dnswire.TypeCNAME, LookupOptions{})
	if res.Kind != Answer || len(res.Records) != 1 {
		t.Errorf("CNAME query: kind=%v records=%v", res.Kind, res.Records)
	}
}

func TestLookupCNAMELoopTerminates(t *testing.T) {
	z := New("example.com.")
	mustAdd(t, z, dnswire.RR{Name: "a.example.com.", Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.CNAME{Target: "b.example.com."}})
	mustAdd(t, z, dnswire.RR{Name: "b.example.com.", Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.CNAME{Target: "a.example.com."}})
	res := z.Lookup("a.example.com.", dnswire.TypeA, LookupOptions{})
	if res.Kind != Answer {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Records) > 2*maxCNAMEChain+2 {
		t.Errorf("loop produced %d records", len(res.Records))
	}
}

func mustAdd(t *testing.T, z *Zone, rr dnswire.RR) {
	t.Helper()
	if err := z.Add(rr); err != nil {
		t.Fatal(err)
	}
}

func TestLookupReferral(t *testing.T) {
	z := testZone(t)
	for _, q := range []string{"sub.example.com.", "deep.in.sub.example.com."} {
		res := z.Lookup(q, dnswire.TypeA, LookupOptions{})
		if res.Kind != Referral {
			t.Fatalf("%s: kind = %v", q, res.Kind)
		}
		if len(res.Authority) != 1 || res.Authority[0].Type() != dnswire.TypeNS {
			t.Errorf("%s: authority = %v", q, res.Authority)
		}
		if len(res.Additional) != 1 || res.Additional[0].Data.String() != "192.0.2.53" {
			t.Errorf("%s: glue = %v", q, res.Additional)
		}
		if len(res.Records) != 0 {
			t.Errorf("%s: referral must have empty answer", q)
		}
	}
}

func TestLookupDSAtCutIsNotReferral(t *testing.T) {
	z := testZone(t)
	mustAdd(t, z, dnswire.RR{Name: "sub.example.com.", Class: dnswire.ClassINET, TTL: 3600,
		Data: dnswire.DS{KeyTag: 1, Algorithm: 8, DigestType: 2, Digest: []byte{1}}})
	res := z.Lookup("sub.example.com.", dnswire.TypeDS, LookupOptions{})
	if res.Kind != Answer {
		t.Fatalf("DS at cut: kind = %v", res.Kind)
	}
	if len(res.Records) != 1 || res.Records[0].Type() != dnswire.TypeDS {
		t.Errorf("records = %v", res.Records)
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("nope.example.com.", dnswire.TypeA, LookupOptions{})
	if res.Kind != NXDomain {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Authority) != 1 || res.Authority[0].Type() != dnswire.TypeSOA {
		t.Errorf("authority = %v", res.Authority)
	}
}

func TestLookupNoData(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("www.example.com.", dnswire.TypeMX, LookupOptions{})
	if res.Kind != NoData {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Authority) != 1 || res.Authority[0].Type() != dnswire.TypeSOA {
		t.Errorf("authority = %v", res.Authority)
	}
}

func TestLookupEmptyNonTerminal(t *testing.T) {
	z := testZone(t)
	// "wild.example.com." exists only as the parent of "*.wild...".
	res := z.Lookup("wild.example.com.", dnswire.TypeA, LookupOptions{})
	if res.Kind != NoData {
		t.Errorf("empty non-terminal: kind = %v, want NoData", res.Kind)
	}
}

func TestLookupWildcard(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("anything.wild.example.com.", dnswire.TypeA, LookupOptions{})
	if res.Kind != Answer {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Records) != 1 {
		t.Fatalf("records = %v", res.Records)
	}
	if res.Records[0].Name != "anything.wild.example.com." {
		t.Errorf("wildcard expansion kept owner %q", res.Records[0].Name)
	}
	if res.Records[0].Data.String() != "192.0.2.99" {
		t.Errorf("wildcard data = %v", res.Records[0].Data)
	}
	// Wildcard does not cover a different type.
	res = z.Lookup("anything.wild.example.com.", dnswire.TypeMX, LookupOptions{})
	if res.Kind != NoData {
		t.Errorf("wildcard wrong-type: kind = %v, want NoData", res.Kind)
	}
}

func TestLookupOutOfZone(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("www.example.org.", dnswire.TypeA, LookupOptions{})
	if res.Kind != OutOfZone {
		t.Errorf("kind = %v", res.Kind)
	}
}

func TestLookupANY(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("www.example.com.", dnswire.TypeANY, LookupOptions{})
	if res.Kind != Answer {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Records) != 2 { // A + AAAA
		t.Errorf("ANY records = %v", res.Records)
	}
}

func TestAddRejectsOutOfZone(t *testing.T) {
	z := New("example.com.")
	err := z.Add(dnswire.RR{Name: "example.org.", Class: dnswire.ClassINET, TTL: 1,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	if err == nil {
		t.Error("expected out-of-zone error")
	}
}

func TestAddCoalescesDuplicates(t *testing.T) {
	z := New("example.com.")
	rr := dnswire.RR{Name: "a.example.com.", Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}
	mustAdd(t, z, rr)
	mustAdd(t, z, rr)
	if n := len(z.RRset("a.example.com.", dnswire.TypeA)); n != 1 {
		t.Errorf("duplicate coalescing failed: %d records", n)
	}
}

func TestValidate(t *testing.T) {
	z := testZone(t)
	if errs := z.Validate(); len(errs) != 0 {
		t.Errorf("valid zone reported: %v", errs)
	}
	z2 := New("broken.example.")
	mustAdd(t, z2, dnswire.RR{Name: "x.broken.example.", Class: dnswire.ClassINET, TTL: 1,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	errs := z2.Validate()
	if len(errs) != 2 { // missing SOA, missing apex NS
		t.Errorf("broken zone errors = %v", errs)
	}
	// Missing glue detection.
	z3 := New("example.")
	mustAdd(t, z3, dnswire.RR{Name: "example.", Class: dnswire.ClassINET, TTL: 1, Data: dnswire.SOA{
		MName: "ns.example.", RName: "root.example.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}})
	mustAdd(t, z3, dnswire.RR{Name: "example.", Class: dnswire.ClassINET, TTL: 1, Data: dnswire.NS{Host: "ns.example."}})
	mustAdd(t, z3, dnswire.RR{Name: "ns.example.", Class: dnswire.ClassINET, TTL: 1,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	mustAdd(t, z3, dnswire.RR{Name: "sub.example.", Class: dnswire.ClassINET, TTL: 1,
		Data: dnswire.NS{Host: "ns.sub.example."}}) // in-bailiwick, no glue
	if errs := z3.Validate(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "glue") {
		t.Errorf("glue validation = %v", errs)
	}
}

func TestRecordsDeterministic(t *testing.T) {
	z := testZone(t)
	a := z.Records()
	b := z.Records()
	if len(a) != len(b) || len(a) != z.NumRecords() {
		t.Fatalf("record counts differ: %d %d %d", len(a), len(b), z.NumRecords())
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("order differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestLookupDNSSECAttachesSigs(t *testing.T) {
	z := testZone(t)
	sig := dnswire.RRSIG{TypeCovered: dnswire.TypeA, Algorithm: 8, Labels: 3,
		OrigTTL: 300, Expiration: 2e9, Inception: 1e9, KeyTag: 7,
		SignerName: "example.com.", Signature: []byte{1, 2, 3}}
	mustAdd(t, z, dnswire.RR{Name: "www.example.com.", Class: dnswire.ClassINET, TTL: 300, Data: sig})
	res := z.Lookup("www.example.com.", dnswire.TypeA, LookupOptions{DNSSEC: true})
	if res.Kind != Answer {
		t.Fatalf("kind = %v", res.Kind)
	}
	var haveSig bool
	for _, rr := range res.Records {
		if rr.Type() == dnswire.TypeRRSIG {
			haveSig = true
		}
	}
	if !haveSig {
		t.Error("DO=1 answer lacks RRSIG")
	}
	// Without DNSSEC no signature appears.
	res = z.Lookup("www.example.com.", dnswire.TypeA, LookupOptions{})
	for _, rr := range res.Records {
		if rr.Type() == dnswire.TypeRRSIG {
			t.Error("DO=0 answer carries RRSIG")
		}
	}
}

func TestLookupDNSSECNegative(t *testing.T) {
	z := testZone(t)
	soaSig := dnswire.RRSIG{TypeCovered: dnswire.TypeSOA, Algorithm: 8, Labels: 2,
		OrigTTL: 3600, Expiration: 2e9, Inception: 1e9, KeyTag: 7,
		SignerName: "example.com.", Signature: []byte{9}}
	mustAdd(t, z, dnswire.RR{Name: "example.com.", Class: dnswire.ClassINET, TTL: 3600, Data: soaSig})
	mustAdd(t, z, dnswire.RR{Name: "mail.example.com.", Class: dnswire.ClassINET, TTL: 3600,
		Data: dnswire.NSEC{NextName: "ns1.example.com.", Types: []dnswire.Type{dnswire.TypeA}}})
	res := z.Lookup("nope.example.com.", dnswire.TypeA, LookupOptions{DNSSEC: true})
	if res.Kind != NXDomain {
		t.Fatalf("kind = %v", res.Kind)
	}
	types := map[dnswire.Type]int{}
	for _, rr := range res.Authority {
		types[rr.Type()]++
	}
	if types[dnswire.TypeSOA] != 1 || types[dnswire.TypeRRSIG] == 0 || types[dnswire.TypeNSEC] == 0 {
		t.Errorf("authority types = %v", types)
	}
}

// TestLookupANYDeterministic: an ANY answer lists the node's RRsets in
// ascending type order, so one question always packs to the same bytes —
// across lookups and across rebuilds of the zone (the map-walking Lookup
// emitted them in map-iteration order, a different one each call).
func TestLookupANYDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 100; i++ {
		z := testZone(t)
		res := z.Lookup("example.com.", dnswire.TypeANY, LookupOptions{})
		if res.Kind != Answer || len(res.Records) != 4 { // SOA, 2×NS, MX
			t.Fatalf("kind = %v records = %v", res.Kind, res.Records)
		}
		for j := 1; j < len(res.Records); j++ {
			if res.Records[j-1].Type() > res.Records[j].Type() {
				t.Fatalf("ANY answer not in type order: %v", res.Records)
			}
		}
		m := dnswire.Message{Answer: res.Records}
		wire, err := m.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = wire
		} else if !bytes.Equal(wire, first) {
			t.Fatalf("lookup %d packs differently:\n%x\n%x", i, wire, first)
		}
	}
}
