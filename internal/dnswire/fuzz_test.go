package dnswire

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
)

// fuzzSeeds returns a corpus of well-formed wire messages plus crafted
// hostile encodings (compression-pointer loops, truncations, forged
// counts) so the fuzzer starts from interesting shapes.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte

	pack := func(m *Message) {
		t.Helper()
		wire, err := m.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, wire)
	}

	q := NewQuery(0x1234, "www.example.com.", TypeA)
	pack(q)

	resp := ResponseTo(q)
	resp.Answer = append(resp.Answer, RR{
		Name: "www.example.com.", Class: ClassINET, TTL: 300,
		Data: A{Addr: netip.MustParseAddr("192.0.2.80")},
	})
	resp.Authority = append(resp.Authority, RR{
		Name: "example.com.", Class: ClassINET, TTL: 86400,
		Data: NS{Host: "ns1.example.com."},
	})
	resp.Additional = append(resp.Additional, RR{
		Name: "ns1.example.com.", Class: ClassINET, TTL: 86400,
		Data: A{Addr: netip.MustParseAddr("192.0.2.1")},
	})
	pack(resp)

	edns := NewQuery(0xBEEF, "example.org.", TypeTXT)
	edns.Edns = &EDNS{UDPSize: 4096, DO: true}
	pack(edns)

	// Hostile: self-referential compression pointer in the question name.
	self := []byte{
		0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0,
		0xC0, 0x0C, // pointer to itself
		0x00, 0x01, 0x00, 0x01,
	}
	seeds = append(seeds, self)

	// Hostile: two pointers chasing each other.
	loop := []byte{
		0x00, 0x02, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0,
		0xC0, 0x0E, // -> offset 14
		0xC0, 0x0C, // -> offset 12
		0x00, 0x01, 0x00, 0x01,
	}
	seeds = append(seeds, loop)

	// Hostile: forged ARCOUNT with no body.
	forged := []byte{0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF}
	seeds = append(seeds, forged)

	// Hostile: header only, then truncated mid-name.
	seeds = append(seeds, []byte{0, 4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'w', 'w'})

	return seeds
}

// FuzzMessageUnpack asserts the decoder never panics and never produces
// out-of-bounds structures on hostile input: compression pointers are
// bounded, names stay within the 255-octet wire limit, and section
// slices cannot be inflated beyond what the payload can carry. It also
// holds Unpack to the name-chunk contract: the names decoded from data
// are unchanged after the same Message unpacks b, and the names a
// by-value copy of it then decodes from c are unchanged after the
// original unpacks data again.
func FuzzMessageUnpack(f *testing.F) {
	seeds := fuzzSeeds(f)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)], seeds[(i+2)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, data, b, c []byte) {
		var m Message
		if err := m.Unpack(data); err != nil {
			return
		}
		// Each question consumed ≥5 octets, each RR ≥11.
		if 5*len(m.Question)+11*(len(m.Answer)+len(m.Authority)+len(m.Additional)) > len(data) {
			t.Fatalf("sections larger than payload: %d/%d/%d/%d from %d bytes",
				len(m.Question), len(m.Answer), len(m.Authority), len(m.Additional), len(data))
		}
		kept, clones := keepNames(&m)
		for _, name := range kept {
			// Octets pass through decoding unchanged, so the presentation
			// form is bounded by the 255-octet wire form.
			if len(name) > maxNameWire {
				t.Fatalf("decoded name of %d bytes exceeds wire-format bound", len(name))
			}
		}
		_ = m.Unpack(b)
		cp := m
		_ = cp.Unpack(c)
		cpKept, cpClones := keepNames(&cp)
		_ = m.Unpack(data)
		for i := range kept {
			if kept[i] != clones[i] {
				t.Fatalf("name %d decoded from data changed from %q to %q", i, clones[i], kept[i])
			}
		}
		for i := range cpKept {
			if cpKept[i] != cpClones[i] {
				t.Fatalf("name %d a copy decoded from c changed from %q to %q", i, cpClones[i], cpKept[i])
			}
		}
	})
}

// keepNames returns m's question and owner names as Unpack handed them
// out, and a private copy of each.
func keepNames(m *Message) (kept, clones []string) {
	for _, q := range m.Question {
		kept = append(kept, q.Name)
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			kept = append(kept, rr.Name)
		}
	}
	for _, name := range kept {
		clones = append(clones, strings.Clone(name))
	}
	return kept, clones
}

// FuzzPackUnpackRoundTrip asserts the decode→encode composition reaches a
// fixed point: anything our decoder accepts and our encoder can express
// must re-decode losslessly, and a second encode must be byte-identical.
// (The first re-encode may legitimately differ from the input — name
// compression and OPT placement are normalized — and may legitimately
// fail for names that have no presentation form, e.g. labels containing
// dots. After that, Pack∘Unpack must be the identity.)
func FuzzPackUnpackRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unpack(data); err != nil {
			return
		}
		wire2, err := m.Pack(nil)
		if err != nil {
			return // decoded form has no wire expression; acceptable
		}
		var m2 Message
		if err := m2.Unpack(wire2); err != nil {
			t.Fatalf("our own encoding does not decode: %v\nwire: %x", err, wire2)
		}
		wire3, err := m2.Pack(nil)
		if err != nil {
			t.Fatalf("re-encode of our own encoding failed: %v", err)
		}
		if !bytes.Equal(wire2, wire3) {
			t.Fatalf("encode is not a fixed point:\nwire2: %x\nwire3: %x", wire2, wire3)
		}
	})
}
