package dnswire

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

// randomName draws a syntactically valid DNS name.
func randomName(r *rand.Rand) string {
	depth := 1 + r.Intn(5)
	labels := make([]string, depth)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	for i := range labels {
		n := 1 + r.Intn(12)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet)-1)]) // avoid '-' heavy
		}
		labels[i] = sb.String()
	}
	return strings.Join(labels, ".") + "."
}

func randomRData(r *rand.Rand) RData {
	switch r.Intn(8) {
	case 0:
		var b [4]byte
		r.Read(b[:])
		return A{Addr: netip.AddrFrom4(b)}
	case 1:
		var b [16]byte
		r.Read(b[:])
		b[0] = 0x20 // keep it a real v6, not 4-in-6
		return AAAA{Addr: netip.AddrFrom16(b)}
	case 2:
		return NS{Host: randomName(r)}
	case 3:
		return CNAME{Target: randomName(r)}
	case 4:
		return MX{Preference: uint16(r.Uint32()), Host: randomName(r)}
	case 5:
		n := 1 + r.Intn(3)
		ss := make([]string, n)
		for i := range ss {
			b := make([]byte, r.Intn(40))
			r.Read(b)
			ss[i] = string(b)
		}
		return TXT{Strings: ss}
	case 6:
		return SOA{
			MName: randomName(r), RName: randomName(r),
			Serial: r.Uint32(), Refresh: r.Uint32(), Retry: r.Uint32(),
			Expire: r.Uint32(), Minimum: r.Uint32(),
		}
	default:
		// At least one octet: nil vs empty []byte is indistinguishable on
		// the wire, so a zero-length payload cannot round-trip by DeepEqual.
		data := make([]byte, 1+r.Intn(63))
		r.Read(data)
		return RawRData{RRType: Type(300 + r.Intn(200)), Data: data}
	}
}

// TestQuickNameRoundTrip: any valid name survives encode/decode unchanged.
func TestQuickNameRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		name := randomName(r)
		if nameWireLen(name) > maxNameWire {
			return true // generator rarely exceeds; skip
		}
		buf, err := appendName(nil, name, nil, 0)
		if err != nil {
			return false
		}
		got, next, err := unpackName(buf, 0)
		return err == nil && got == name && next == len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickMessageRoundTrip: random messages survive Pack/Unpack.
func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{
			Header: Header{
				ID: uint16(r.Uint32()), QR: r.Intn(2) == 0,
				AA: r.Intn(2) == 0, RD: r.Intn(2) == 0,
				Rcode: Rcode(r.Intn(6)),
			},
		}
		m.Question = append(m.Question, Question{
			Name: randomName(r), Type: TypeA, Class: ClassINET,
		})
		for i := 0; i < r.Intn(4); i++ {
			m.Answer = append(m.Answer, RR{
				Name: randomName(r), Class: ClassINET,
				TTL: r.Uint32() % 86400, Data: randomRData(r),
			})
		}
		for i := 0; i < r.Intn(3); i++ {
			m.Authority = append(m.Authority, RR{
				Name: randomName(r), Class: ClassINET,
				TTL: r.Uint32() % 86400, Data: NS{Host: randomName(r)},
			})
		}
		if r.Intn(2) == 0 {
			m.Edns = &EDNS{UDPSize: uint16(512 + r.Intn(4096)), DO: r.Intn(2) == 0}
		}
		wire, err := m.Pack(nil)
		if err != nil {
			t.Logf("pack: %v", err)
			return false
		}
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Logf("unpack: %v", err)
			return false
		}
		// Normalize empty slices vs nil for comparison.
		if len(got.Answer) == 0 {
			got.Answer = nil
		}
		if len(got.Authority) == 0 {
			got.Authority = nil
		}
		if len(got.Additional) == 0 {
			got.Additional = nil
		}
		if len(m.Answer) == 0 {
			m.Answer = nil
		}
		if len(m.Authority) == 0 {
			m.Authority = nil
		}
		if len(m.Additional) == 0 {
			m.Additional = nil
		}
		return sameMessage(&got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnpackNeverPanics: arbitrary bytes must never panic the decoder.
func TestQuickUnpackNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		var m Message
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("panic on % x: %v", data, p)
			}
		}()
		_ = m.Unpack(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompareNamesIsOrdering: CompareNames is a total order consistent
// with equality and antisymmetry.
func TestQuickCompareNamesIsOrdering(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomName(r), randomName(r), randomName(r)
		if CompareNames(a, a) != 0 {
			return false
		}
		if CompareNames(a, b) != -CompareNames(b, a) {
			return false
		}
		// Transitivity spot check.
		if CompareNames(a, b) <= 0 && CompareNames(b, c) <= 0 && CompareNames(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickPackIdempotent: packing the same message twice yields identical
// bytes (compression is deterministic).
func TestQuickPackIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewQuery(uint16(r.Uint32()), randomName(r), TypeA)
		m.Answer = append(m.Answer, RR{Name: m.Question[0].Name, Class: ClassINET, TTL: 60, Data: randomRData(r)})
		w1, err1 := m.Pack(nil)
		w2, err2 := m.Pack(nil)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return string(w1) == string(w2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
