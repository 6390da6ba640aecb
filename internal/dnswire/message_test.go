package dnswire

import (
	"net/netip"
	"reflect"
	"testing"
)

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func sampleResponse(t *testing.T) *Message {
	return &Message{
		Header: Header{ID: 0xBEEF, QR: true, AA: true, RD: true, RA: true, Rcode: RcodeNoError},
		Question: []Question{
			{Name: "www.example.com.", Type: TypeA, Class: ClassINET},
		},
		Answer: []RR{
			{Name: "www.example.com.", Class: ClassINET, TTL: 300,
				Data: A{Addr: mustAddr(t, "192.0.2.1")}},
			{Name: "www.example.com.", Class: ClassINET, TTL: 300,
				Data: A{Addr: mustAddr(t, "192.0.2.2")}},
		},
		Authority: []RR{
			{Name: "example.com.", Class: ClassINET, TTL: 3600,
				Data: NS{Host: "ns1.example.com."}},
		},
		Additional: []RR{
			{Name: "ns1.example.com.", Class: ClassINET, TTL: 3600,
				Data: A{Addr: mustAddr(t, "192.0.2.53")}},
		},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleResponse(t)
	wire, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if !sameMessage(&got, m) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", &got, m)
	}
}

// sameMessage compares the exported content of two messages. (A Message
// that has been unpacked into also holds its OPT decode storage, which a
// hand-built one does not, so DeepEqual on the structs would differ.)
func sameMessage(a, b *Message) bool {
	return a.Header == b.Header &&
		reflect.DeepEqual(a.Question, b.Question) &&
		reflect.DeepEqual(a.Answer, b.Answer) &&
		reflect.DeepEqual(a.Authority, b.Authority) &&
		reflect.DeepEqual(a.Additional, b.Additional) &&
		reflect.DeepEqual(a.Edns, b.Edns)
}

func TestMessageCompressionShrinks(t *testing.T) {
	m := sampleResponse(t)
	wire, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed, the repeated owner names alone would add
	// len("www.example.com.")+1 per repetition. Check the total size is
	// well under a naive encoding.
	naive := 12
	for _, q := range m.Question {
		naive += nameWireLen(q.Name) + 4
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			naive += nameWireLen(rr.Name) + 10 + 64 // generous rdata bound
		}
	}
	if len(wire) >= naive {
		t.Errorf("packed %d octets; expected compression below %d", len(wire), naive)
	}
}

func TestRDataRoundTrips(t *testing.T) {
	rrs := []RR{
		{Name: "a.example.", Class: ClassINET, TTL: 60, Data: A{Addr: mustAddr(t, "203.0.113.9")}},
		{Name: "a.example.", Class: ClassINET, TTL: 60, Data: AAAA{Addr: mustAddr(t, "2001:db8::1")}},
		{Name: "example.", Class: ClassINET, TTL: 60, Data: NS{Host: "ns.example."}},
		{Name: "w.example.", Class: ClassINET, TTL: 60, Data: CNAME{Target: "a.example."}},
		{Name: "9.example.", Class: ClassINET, TTL: 60, Data: PTR{Target: "host.example."}},
		{Name: "example.", Class: ClassINET, TTL: 60, Data: MX{Preference: 10, Host: "mail.example."}},
		{Name: "example.", Class: ClassINET, TTL: 60, Data: TXT{Strings: []string{"v=spf1 -all", "x"}}},
		{Name: "example.", Class: ClassINET, TTL: 60, Data: SOA{
			MName: "ns.example.", RName: "root.example.", Serial: 2026070500,
			Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 3600}},
		{Name: "_dns._tcp.example.", Class: ClassINET, TTL: 60, Data: SRV{
			Priority: 0, Weight: 5, Port: 853, Target: "a.example."}},
		{Name: "sub.example.", Class: ClassINET, TTL: 60, Data: DS{
			KeyTag: 12345, Algorithm: 8, DigestType: 2, Digest: []byte{1, 2, 3, 4}}},
		{Name: "example.", Class: ClassINET, TTL: 60, Data: DNSKEY{
			Flags: 256, Protocol: 3, Algorithm: 8, PublicKey: []byte{9, 8, 7}}},
		{Name: "example.", Class: ClassINET, TTL: 60, Data: RRSIG{
			TypeCovered: TypeA, Algorithm: 8, Labels: 2, OrigTTL: 60,
			Expiration: 1700000000, Inception: 1690000000, KeyTag: 12345,
			SignerName: "example.", Signature: []byte{0xAA, 0xBB}}},
		{Name: "a.example.", Class: ClassINET, TTL: 60, Data: NSEC{
			NextName: "b.example.", Types: []Type{TypeA, TypeNS, TypeRRSIG, TypeCAA}}},
		{Name: "x.example.", Class: ClassINET, TTL: 60, Data: RawRData{RRType: Type(999), Data: []byte{1, 2, 3}}},
	}
	for _, rr := range rrs {
		m := &Message{Header: Header{ID: 1, QR: true}, Answer: []RR{rr}}
		wire, err := m.Pack(nil)
		if err != nil {
			t.Fatalf("%s: pack: %v", rr.Type(), err)
		}
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Fatalf("%s: unpack: %v", rr.Type(), err)
		}
		if len(got.Answer) != 1 {
			t.Fatalf("%s: %d answers", rr.Type(), len(got.Answer))
		}
		if !reflect.DeepEqual(got.Answer[0], rr) {
			t.Errorf("%s mismatch:\n got %+v\nwant %+v", rr.Type(), got.Answer[0], rr)
		}
	}
}

func TestEDNSRoundTrip(t *testing.T) {
	m := NewQuery(7, "example.com.", TypeA)
	m.Edns = &EDNS{UDPSize: 4096, DO: true, Options: []EDNSOption{{Code: 10, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}}
	wire, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got.Edns == nil {
		t.Fatal("EDNS lost in round trip")
	}
	if got.Edns.UDPSize != 4096 || !got.Edns.DO {
		t.Errorf("EDNS = %+v", got.Edns)
	}
	if len(got.Edns.Options) != 1 || got.Edns.Options[0].Code != 10 {
		t.Errorf("options = %+v", got.Edns.Options)
	}
	if len(got.Additional) != 0 {
		t.Errorf("OPT leaked into Additional: %v", got.Additional)
	}
}

func TestUnpackRejectsForgedCounts(t *testing.T) {
	m := NewQuery(1, "example.com.", TypeA)
	wire, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Forge an ANCOUNT of 65535 with no records behind it.
	wire[6], wire[7] = 0xFF, 0xFF
	var got Message
	if err := got.Unpack(wire); err == nil {
		t.Error("expected error for forged section count")
	}
}

func TestUnpackTruncated(t *testing.T) {
	m := sampleResponse(t)
	wire, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	for cut := 1; cut < len(wire); cut += 3 {
		if err := got.Unpack(wire[:cut]); err == nil && cut < len(wire) {
			// Some prefixes may parse if counts say fewer records, but a
			// strict prefix of this fixed message must always fail.
			t.Errorf("Unpack accepted %d-octet prefix of %d-octet message", cut, len(wire))
		}
	}
}

func TestResponseTo(t *testing.T) {
	q := NewQuery(42, "example.org.", TypeAAAA)
	r := ResponseTo(q)
	if !r.Header.QR || r.Header.ID != 42 || !r.Header.RD {
		t.Errorf("header = %+v", r.Header)
	}
	if len(r.Question) != 1 || r.Question[0] != q.Question[0] {
		t.Errorf("question = %+v", r.Question)
	}
}

func TestMessageReset(t *testing.T) {
	m := sampleResponse(t)
	m.Edns = &EDNS{UDPSize: 512}
	m.Reset()
	if len(m.Question)+len(m.Answer)+len(m.Authority)+len(m.Additional) != 0 {
		t.Error("Reset left records behind")
	}
	if m.Edns != nil {
		t.Error("Reset left EDNS behind")
	}
	if m.Header != (Header{}) {
		t.Error("Reset left header state")
	}
}

func TestTypeParseStringRoundTrip(t *testing.T) {
	for typ := range typeNames {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseType(%s) = %v, %v", typ, got, err)
		}
	}
	if got, err := ParseType("TYPE4242"); err != nil || got != Type(4242) {
		t.Errorf("ParseType(TYPE4242) = %v, %v", got, err)
	}
	if _, err := ParseType("BOGUS"); err == nil {
		t.Error("ParseType(BOGUS) should fail")
	}
}

func TestClassParseStringRoundTrip(t *testing.T) {
	for _, c := range []Class{ClassINET, ClassCH, ClassANY} {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%s) = %v, %v", c, got, err)
		}
	}
}

func TestNSECBitmapRoundTrip(t *testing.T) {
	types := []Type{TypeA, TypeNS, TypeSOA, TypeTXT, TypeAAAA, TypeRRSIG, TypeNSEC, TypeDNSKEY, TypeCAA}
	buf := appendTypeBitmap(nil, types)
	got, err := parseTypeBitmap(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, types) {
		t.Errorf("bitmap round trip: got %v, want %v", got, types)
	}
}

func TestPackedLenMatchesPack(t *testing.T) {
	m := sampleResponse(t)
	wire, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.PackedLen()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Errorf("PackedLen = %d, len(Pack) = %d", n, len(wire))
	}
}

func TestHeaderFlagRoundTrip(t *testing.T) {
	h := Header{ID: 5, QR: true, Opcode: OpcodeNotify, AA: true, TC: true,
		RD: true, RA: true, AD: true, CD: true, Rcode: RcodeRefused}
	var got Header
	got.setFlags(h.flags())
	got.ID = h.ID
	if got != h {
		t.Errorf("flag round trip: got %+v, want %+v", got, h)
	}
}
