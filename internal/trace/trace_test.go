package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ldplayer/internal/dnswire"
)

func queryEntry(t *testing.T, at time.Time, src, dst string, proto Protocol, name string, qt dnswire.Type, edns *dnswire.EDNS) Entry {
	t.Helper()
	m := dnswire.NewQuery(uint16(len(name)*7+1), name, qt)
	m.Edns = edns
	wire, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return Entry{
		Time:     at,
		Src:      netip.MustParseAddrPort(src),
		Dst:      netip.MustParseAddrPort(dst),
		Protocol: proto,
		Message:  wire,
	}
}

func sampleEntries(t *testing.T) []Entry {
	t.Helper()
	base := time.Unix(1461234567, 12345000)
	return []Entry{
		queryEntry(t, base, "192.168.1.1:5353", "198.41.0.4:53", UDP, "example.com.", dnswire.TypeA, nil),
		queryEntry(t, base.Add(137*time.Microsecond), "192.168.1.2:40000", "198.41.0.4:53", TCP, "www.iana.org.", dnswire.TypeAAAA,
			&dnswire.EDNS{UDPSize: 4096, DO: true}),
		queryEntry(t, base.Add(2*time.Second), "10.0.0.9:1024", "192.5.6.30:53", TLS, "mail.google.com.", dnswire.TypeMX,
			&dnswire.EDNS{UDPSize: 1232}),
	}
}

func drain(t *testing.T, r Reader) []Entry {
	t.Helper()
	out, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func entriesEquivalent(t *testing.T, a, b Entry) {
	t.Helper()
	if !a.Time.Equal(b.Time) {
		t.Errorf("time %v != %v", a.Time, b.Time)
	}
	if a.Src != b.Src || a.Dst != b.Dst || a.Protocol != b.Protocol {
		t.Errorf("addressing (%v %v %v) != (%v %v %v)", a.Src, a.Dst, a.Protocol, b.Src, b.Dst, b.Protocol)
	}
	var ma, mb dnswire.Message
	if err := ma.Unpack(a.Message); err != nil {
		t.Fatal(err)
	}
	if err := mb.Unpack(b.Message); err != nil {
		t.Fatal(err)
	}
	if ma.Header.ID != mb.Header.ID || ma.Question[0] != mb.Question[0] {
		t.Errorf("message mismatch: %+v vs %+v", ma, mb)
	}
	if (ma.Edns == nil) != (mb.Edns == nil) {
		t.Errorf("EDNS presence mismatch")
	} else if ma.Edns != nil && (ma.Edns.UDPSize != mb.Edns.UDPSize || ma.Edns.DO != mb.Edns.DO) {
		t.Errorf("EDNS mismatch: %+v vs %+v", ma.Edns, mb.Edns)
	}
}

func TestTextRoundTrip(t *testing.T) {
	entries := sampleEntries(t)
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := drain(t, NewTextReader(&buf))
	if len(got) != len(entries) {
		t.Fatalf("round trip %d -> %d entries", len(entries), len(got))
	}
	for i := range got {
		entriesEquivalent(t, entries[i], got[i])
	}
}

func TestTextIsEditable(t *testing.T) {
	entries := sampleEntries(t)[:1]
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	if err := w.Write(entries[0]); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	// A user edits the protocol column with a text editor: udp -> tcp.
	edited := strings.Replace(buf.String(), " udp ", " tcp ", 1)
	got := drain(t, NewTextReader(strings.NewReader(edited)))
	if len(got) != 1 || got[0].Protocol != TCP {
		t.Fatalf("edited entry = %+v", got)
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	text := "# a comment\n\n" +
		"1461234567.000001 192.168.1.1:5353 198.41.0.4:53 udp 7 rd example.com. IN A - -\n"
	got := drain(t, NewTextReader(strings.NewReader(text)))
	if len(got) != 1 {
		t.Fatalf("entries = %d", len(got))
	}
	var m dnswire.Message
	if err := got[0].Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !m.Header.RD || m.Question[0].Name != "example.com." {
		t.Errorf("message = %+v", m)
	}
}

func TestTextRejectsMalformed(t *testing.T) {
	bad := []string{
		"1461234567.000001 192.168.1.1:5353 198.41.0.4:53 udp 7 rd example.com. IN A -\n",       // 10 fields
		"notatime 192.168.1.1:5353 198.41.0.4:53 udp 7 rd example.com. IN A - -\n",              // bad time
		"1461234567.000001 192.168.1.1 198.41.0.4:53 udp 7 rd example.com. IN A - -\n",          // src missing port
		"1461234567.000001 192.168.1.1:5353 198.41.0.4:53 quic 7 rd example.com. IN A - -\n",    // bad proto
		"1461234567.000001 192.168.1.1:5353 198.41.0.4:53 udp 7 xx example.com. IN A - -\n",     // bad flag
		"1461234567.000001 192.168.1.1:5353 198.41.0.4:53 udp 7 rd example.com. IN A - do\n",    // do without EDNS
		"1461234567.000001 192.168.1.1:5353 198.41.0.4:53 udp 99999 rd example.com. IN A - -\n", // id overflow
	}
	for _, line := range bad {
		if _, err := NewTextReader(strings.NewReader(line)).Next(); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

// TestBlockIPv6Addresses: a block whose dictionaries hold 16-byte
// addresses round-trips them exactly.
func TestBlockIPv6Addresses(t *testing.T) {
	e := queryEntry(t, time.Unix(1, 0), "[2001:db8::1]:5353", "[2001:db8::53]:53", UDP, "v6.example.", dnswire.TypeAAAA, nil)
	got := readBlockFile(t, writeBlockFile(t, []Entry{e}, BlockWriterOptions{}))
	if len(got) != 1 || got[0].Src != e.Src || got[0].Dst != e.Dst {
		t.Fatalf("v6 round trip = %+v", got)
	}
}

func TestSliceReader(t *testing.T) {
	entries := sampleEntries(t)
	r := NewSliceReader(entries)
	got := drain(t, r)
	if len(got) != len(entries) {
		t.Fatalf("%d entries", len(got))
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
	r.Reset()
	if e, err := r.Next(); err != nil || !e.Time.Equal(entries[0].Time) {
		t.Errorf("reset failed: %v %v", e, err)
	}
}

// TestQuickBlockRoundTrip: arbitrary well-formed entries survive the
// block format byte-exactly.
func TestQuickBlockRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		entries := make([]Entry, n)
		for i := range entries {
			var src, dst netip.Addr
			if rng.Intn(2) == 0 {
				var b [4]byte
				rng.Read(b[:])
				src = netip.AddrFrom4(b)
				rng.Read(b[:])
				dst = netip.AddrFrom4(b)
			} else {
				var b [16]byte
				rng.Read(b[:])
				b[0] = 0x20
				src = netip.AddrFrom16(b)
				rng.Read(b[:])
				b[0] = 0x20
				dst = netip.AddrFrom16(b)
			}
			msg := make([]byte, 12+rng.Intn(200))
			rng.Read(msg)
			entries[i] = Entry{
				Time:     time.Unix(rng.Int63n(2_000_000_000), rng.Int63n(1_000_000_000)),
				Src:      netip.AddrPortFrom(src, uint16(rng.Intn(65536))),
				Dst:      netip.AddrPortFrom(dst, uint16(rng.Intn(65536))),
				Protocol: Protocol(rng.Intn(3)),
				Message:  msg,
			}
		}
		data, err := WriteBlockTrace(entries, BlockWriterOptions{BlockEntries: 1 + rng.Intn(3), Codec: uint8(rng.Intn(2))})
		if err != nil {
			return false
		}
		got, err := ReadAll(NewStreamReader(bufio.NewReader(bytes.NewReader(data))))
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range got {
			e, g := entries[i], got[i]
			if !e.Time.Equal(g.Time) || e.Src != g.Src || e.Dst != g.Dst ||
				e.Protocol != g.Protocol || !bytes.Equal(e.Message, g.Message) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickTextRoundTrip: any well-formed query entry survives the text
// format semantically (time to microsecond, addressing, flags, EDNS).
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := dnswire.NewQuery(uint16(rng.Intn(1<<16)), fmt.Sprintf("q%d.example.com.", rng.Intn(1e6)), dnswire.TypeA)
		m.Header.RD = rng.Intn(2) == 0
		m.Header.CD = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			m.Edns = &dnswire.EDNS{UDPSize: uint16(512 + rng.Intn(4096)), DO: rng.Intn(2) == 0}
		}
		wire, err := m.Pack(nil)
		if err != nil {
			return false
		}
		e := Entry{
			Time:     time.Unix(rng.Int63n(2_000_000_000), rng.Int63n(1_000_000)*1000),
			Src:      netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, byte(rng.Intn(256)), byte(rng.Intn(256))}), uint16(1024+rng.Intn(60000))),
			Dst:      netip.MustParseAddrPort("198.41.0.4:53"),
			Protocol: Protocol(rng.Intn(3)),
			Message:  wire,
		}
		var buf bytes.Buffer
		w := NewTextWriter(&buf)
		if err := w.Write(e); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewTextReader(&buf).Next()
		if err != nil {
			t.Logf("read: %v (%q)", err, buf.String())
			return false
		}
		if !got.Time.Equal(e.Time) || got.Src != e.Src || got.Dst != e.Dst || got.Protocol != e.Protocol {
			return false
		}
		var gm dnswire.Message
		if err := gm.Unpack(got.Message); err != nil {
			return false
		}
		if gm.Header.ID != m.Header.ID || gm.Header.RD != m.Header.RD || gm.Header.CD != m.Header.CD {
			return false
		}
		if (gm.Edns == nil) != (m.Edns == nil) {
			return false
		}
		if m.Edns != nil && (gm.Edns.UDPSize != m.Edns.UDPSize || gm.Edns.DO != m.Edns.DO) {
			return false
		}
		return gm.Question[0] == m.Question[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
