package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/trace"
)

func dnsQuery(t testing.TB, id uint16, name string) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(id, name, dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func sampleTrace(t testing.TB) []trace.Entry {
	t.Helper()
	base := time.Unix(1700000000, 500000000)
	return []trace.Entry{
		{
			Time:     base,
			Src:      netip.MustParseAddrPort("10.0.0.1:5353"),
			Dst:      netip.MustParseAddrPort("198.41.0.4:53"),
			Protocol: trace.UDP,
			Message:  dnsQuery(t, 1, "a.example.com."),
		},
		{
			Time:     base.Add(time.Millisecond),
			Src:      netip.MustParseAddrPort("10.0.0.2:41000"),
			Dst:      netip.MustParseAddrPort("198.41.0.4:53"),
			Protocol: trace.TCP,
			Message:  dnsQuery(t, 2, "b.example.com."),
		},
		{
			Time:     base.Add(2 * time.Millisecond),
			Src:      netip.MustParseAddrPort("10.0.0.2:41000"),
			Dst:      netip.MustParseAddrPort("198.41.0.4:53"),
			Protocol: trace.TCP,
			Message:  dnsQuery(t, 3, "c.example.com."),
		},
	}
}

func TestPcapRoundTrip(t *testing.T) {
	entries := sampleTrace(t)
	var buf bytes.Buffer
	if err := WriteDNSPcap(&buf, entries); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("round trip %d -> %d entries", len(entries), len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i].Message, entries[i].Message) {
			t.Errorf("entry %d: message bytes differ", i)
		}
		if got[i].Src != entries[i].Src || got[i].Dst != entries[i].Dst {
			t.Errorf("entry %d: addressing %v->%v, want %v->%v",
				i, got[i].Src, got[i].Dst, entries[i].Src, entries[i].Dst)
		}
		if got[i].Protocol != entries[i].Protocol {
			t.Errorf("entry %d: protocol %v, want %v", i, got[i].Protocol, entries[i].Protocol)
		}
		// Microsecond-precision timestamps.
		if d := got[i].Time.Sub(entries[i].Time); d > time.Microsecond || d < -time.Microsecond {
			t.Errorf("entry %d: timestamp off by %v", i, d)
		}
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("short header accepted")
	}
}

func TestPcapTruncatedPacket(t *testing.T) {
	entries := sampleTrace(t)[:1]
	var buf bytes.Buffer
	if err := WriteDNSPcap(&buf, entries); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	pr, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.Next(); err == nil {
		t.Error("truncated packet accepted")
	}
}

// allocatedDuring reports how many heap bytes f allocated.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// classicPcap is a global header with the given snaplen followed by one
// record header claiming incl captured bytes and then payload.
func classicPcap(snaplen, incl uint32, payload []byte) []byte {
	b := make([]byte, 24+16, 24+16+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], magicMicros)
	binary.LittleEndian.PutUint16(b[4:6], 2)
	binary.LittleEndian.PutUint16(b[6:8], 4)
	binary.LittleEndian.PutUint32(b[16:20], snaplen)
	binary.LittleEndian.PutUint32(b[20:24], LinkTypeRaw)
	binary.LittleEndian.PutUint32(b[24+8:24+12], incl)
	binary.LittleEndian.PutUint32(b[24+12:24+16], incl)
	return append(b, payload...)
}

// TestPcapRejectsHostileRecordLength: a record longer than libpcap's
// largest snaplen is an error before its payload is allocated, whatever
// the file header's own snaplen says (0 used to mean "no limit").
func TestPcapRejectsHostileRecordLength(t *testing.T) {
	for _, snaplen := range []uint32{0, 1 << 30} {
		// The whole oversized payload is present: only the length check
		// can refuse it.
		data := classicPcap(snaplen, maxSnapLen+4, make([]byte, maxSnapLen+4))
		pr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pr.Next(); err == nil {
			t.Errorf("snaplen %d: %d-byte record accepted", snaplen, maxSnapLen+4)
		}
	}
	// A 16-byte record header claiming 64 MiB must not cost 64 MiB.
	pr, err := NewReader(bytes.NewReader(classicPcap(0, 1<<26, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if n := allocatedDuring(func() { pr.Next() }); n > 1<<20 {
		t.Errorf("hostile record header allocated %d bytes", n)
	}
}

// TestTCPSegmentSplitAcrossPackets checks the reassembler joins a DNS
// message split mid-frame.
func TestTCPSegmentSplitAcrossPackets(t *testing.T) {
	msg := dnsQuery(t, 9, "split.example.com.")
	framed := make([]byte, 2+len(msg))
	binary.BigEndian.PutUint16(framed, uint16(len(msg)))
	copy(framed[2:], msg)

	src := netip.MustParseAddrPort("10.0.0.3:50000")
	dst := netip.MustParseAddrPort("198.41.0.4:53")
	mk := func(seq uint32, payload []byte) []byte {
		var pkt []byte
		eth := Ethernet{EtherType: EtherTypeIPv4}
		pkt = eth.AppendTo(pkt)
		ip := IPv4{Protocol: IPProtoTCP, Src: src.Addr(), Dst: dst.Addr()}
		pkt = ip.AppendTo(pkt, 20+len(payload))
		tcp := TCP{SrcPort: src.Port(), DstPort: dst.Port(), Seq: seq, ACK: true}
		pkt = tcp.AppendTo(pkt)
		return append(pkt, payload...)
	}

	x := NewExtractor()
	info := PacketInfo{Timestamp: time.Unix(1, 0)}
	half := len(framed) / 2

	out, err := x.Packet(LinkTypeEthernet, info, mk(0, framed[:half]))
	if err != nil || len(out) != 0 {
		t.Fatalf("first half: out=%v err=%v", out, err)
	}
	out, err = x.Packet(LinkTypeEthernet, info, mk(uint32(half), framed[half:]))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !bytes.Equal(out[0].Message, msg) {
		t.Fatalf("reassembly failed: %v", out)
	}
}

func TestTCPOutOfOrderCounted(t *testing.T) {
	msg := dnsQuery(t, 10, "ooo.example.com.")
	framed := make([]byte, 2+len(msg))
	binary.BigEndian.PutUint16(framed, uint16(len(msg)))
	copy(framed[2:], msg)
	src := netip.MustParseAddrPort("10.0.0.4:50001")
	dst := netip.MustParseAddrPort("198.41.0.4:53")
	var pkt []byte
	eth := Ethernet{EtherType: EtherTypeIPv4}
	pkt = eth.AppendTo(pkt)
	ip := IPv4{Protocol: IPProtoTCP, Src: src.Addr(), Dst: dst.Addr()}
	pkt = ip.AppendTo(pkt, 20+len(framed))
	tcp := TCP{SrcPort: src.Port(), DstPort: dst.Port(), Seq: 0, ACK: true}
	pkt = tcp.AppendTo(pkt)
	pkt = append(pkt, framed...)

	x := NewExtractor()
	info := PacketInfo{Timestamp: time.Unix(1, 0)}
	if _, err := x.Packet(LinkTypeEthernet, info, pkt); err != nil {
		t.Fatal(err)
	}
	// Replaying the same segment is now out of order (seq regressed).
	if _, err := x.Packet(LinkTypeEthernet, info, pkt); err != nil {
		t.Fatal(err)
	}
	if x.OutOfOrder != 1 {
		t.Errorf("OutOfOrder = %d, want 1", x.OutOfOrder)
	}
}

func TestNonDNSSkipped(t *testing.T) {
	var pkt []byte
	eth := Ethernet{EtherType: EtherTypeIPv4}
	pkt = eth.AppendTo(pkt)
	ip := IPv4{Protocol: IPProtoUDP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	pkt = ip.AppendTo(pkt, 8+4)
	udp := UDP{SrcPort: 1234, DstPort: 4321}
	pkt = udp.AppendTo(pkt, 4)
	pkt = append(pkt, "data"...)
	x := NewExtractor()
	out, err := x.Packet(LinkTypeEthernet, PacketInfo{}, pkt)
	if err != nil || out != nil {
		t.Errorf("out=%v err=%v", out, err)
	}
	if x.NonDNS != 1 {
		t.Errorf("NonDNS = %d", x.NonDNS)
	}
}

func TestRawLinkType(t *testing.T) {
	// Write a raw-IP pcap by hand.
	var buf bytes.Buffer
	pw := NewWriter(&buf, LinkTypeRaw)
	msg := dnsQuery(t, 11, "raw.example.com.")
	var pkt []byte
	ip := IPv4{Protocol: IPProtoUDP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("198.41.0.4")}
	pkt = ip.AppendTo(pkt, 8+len(msg))
	udp := UDP{SrcPort: 5353, DstPort: 53}
	pkt = udp.AppendTo(pkt, len(msg))
	pkt = append(pkt, msg...)
	if err := pw.WritePacket(time.Unix(2, 0), pkt); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(tr)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0].Message, msg) {
		t.Fatalf("raw link extraction = %v", got)
	}
}

func TestIPv6Extraction(t *testing.T) {
	msg := dnsQuery(t, 12, "v6.example.com.")
	src := netip.MustParseAddr("2001:db8::1")
	dst := netip.MustParseAddr("2001:db8::53")
	var pkt []byte
	eth := Ethernet{EtherType: EtherTypeIPv6}
	pkt = eth.AppendTo(pkt)
	// Hand-build the IPv6 fixed header.
	hdr := make([]byte, 40)
	hdr[0] = 6 << 4
	binary.BigEndian.PutUint16(hdr[4:6], uint16(8+len(msg)))
	hdr[6] = IPProtoUDP
	s16, d16 := src.As16(), dst.As16()
	copy(hdr[8:24], s16[:])
	copy(hdr[24:40], d16[:])
	pkt = append(pkt, hdr...)
	udp := UDP{SrcPort: 5353, DstPort: 53}
	pkt = udp.AppendTo(pkt, len(msg))
	pkt = append(pkt, msg...)

	x := NewExtractor()
	out, err := x.Packet(LinkTypeEthernet, PacketInfo{Timestamp: time.Unix(3, 0)}, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Src.Addr() != src {
		t.Fatalf("v6 extraction = %v", out)
	}
}
