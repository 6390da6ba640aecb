package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

// writeNgBlock emits one pcapng block with padding and trailing length.
func writeNgBlock(buf *bytes.Buffer, typ uint32, body []byte) {
	pad := (4 - len(body)%4) % 4
	total := uint32(8 + len(body) + pad + 4)
	binary.Write(buf, binary.LittleEndian, typ)
	binary.Write(buf, binary.LittleEndian, total)
	buf.Write(body)
	buf.Write(make([]byte, pad))
	binary.Write(buf, binary.LittleEndian, total)
}

// buildNgCapture assembles SHB + IDB + one EPB per packet.
func buildNgCapture(t testing.TB, linkType uint32, packets [][]byte, ts []time.Time) []byte {
	t.Helper()
	var buf bytes.Buffer
	// Section header: magic, version 1.0, section length -1.
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:4], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[4:6], 1)
	binary.LittleEndian.PutUint64(shb[8:16], 0xFFFFFFFFFFFFFFFF)
	writeNgBlock(&buf, blockSectionHeader, shb)
	// Interface description: linktype, reserved, snaplen (no options ->
	// default microsecond resolution).
	idb := make([]byte, 8)
	binary.LittleEndian.PutUint16(idb[0:2], uint16(linkType))
	binary.LittleEndian.PutUint32(idb[4:8], 262144)
	writeNgBlock(&buf, blockInterfaceDesc, idb)
	for i, pkt := range packets {
		micros := uint64(ts[i].UnixMicro())
		epb := make([]byte, 20+len(pkt))
		binary.LittleEndian.PutUint32(epb[0:4], 0) // interface 0
		binary.LittleEndian.PutUint32(epb[4:8], uint32(micros>>32))
		binary.LittleEndian.PutUint32(epb[8:12], uint32(micros))
		binary.LittleEndian.PutUint32(epb[12:16], uint32(len(pkt)))
		binary.LittleEndian.PutUint32(epb[16:20], uint32(len(pkt)))
		copy(epb[20:], pkt)
		writeNgBlock(&buf, blockEnhancedPacket, epb)
	}
	return buf.Bytes()
}

func TestPcapngExtractsDNS(t *testing.T) {
	// Reuse the classic-pcap fixture entries, re-encapsulated in pcapng.
	entries := sampleTrace(t)[:1]
	var classic bytes.Buffer
	if err := WriteDNSPcap(&classic, entries); err != nil {
		t.Fatal(err)
	}
	pr, err := NewReader(&classic)
	if err != nil {
		t.Fatal(err)
	}
	var pkts [][]byte
	var tss []time.Time
	for {
		info, data, err := pr.Next()
		if err != nil {
			break
		}
		pkts = append(pkts, data)
		tss = append(tss, info.Timestamp)
	}
	ng := buildNgCapture(t, LinkTypeEthernet, pkts, tss)

	tr, err := NewNgTraceReader(bytes.NewReader(ng))
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("entries = %d", len(got))
	}
	if !bytes.Equal(got[0].Message, entries[0].Message) {
		t.Error("message bytes differ")
	}
	if d := got[0].Time.Sub(entries[0].Time); d > time.Microsecond || d < -time.Microsecond {
		t.Errorf("timestamp off by %v", d)
	}
}

func TestPcapngSkipsUnknownBlocks(t *testing.T) {
	entries := sampleTrace(t)[:1]
	var classic bytes.Buffer
	WriteDNSPcap(&classic, entries)
	pr, _ := NewReader(&classic)
	info, data, _ := pr.Next()

	var buf bytes.Buffer
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:4], byteOrderMagic)
	binary.LittleEndian.PutUint64(shb[8:16], 0xFFFFFFFFFFFFFFFF)
	writeNgBlock(&buf, blockSectionHeader, shb)
	idb := make([]byte, 8)
	binary.LittleEndian.PutUint16(idb[0:2], uint16(LinkTypeEthernet))
	writeNgBlock(&buf, blockInterfaceDesc, idb)
	// A name-resolution block (type 4) that must be skipped.
	writeNgBlock(&buf, 4, []byte{1, 2, 3, 4})
	epb := make([]byte, 20+len(data))
	binary.LittleEndian.PutUint32(epb[12:16], uint32(len(data)))
	binary.LittleEndian.PutUint32(epb[16:20], uint32(len(data)))
	micros := uint64(info.Timestamp.UnixMicro())
	binary.LittleEndian.PutUint32(epb[4:8], uint32(micros>>32))
	binary.LittleEndian.PutUint32(epb[8:12], uint32(micros))
	copy(epb[20:], data)
	writeNgBlock(&buf, blockEnhancedPacket, epb)

	tr, err := NewNgTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("entries = %d", len(got))
	}
}

// TestPcapngRejectsHostileSectionHeader: the first section header's
// length gets the same cap as every later block, checked before its body
// is allocated.
func TestPcapngRejectsHostileSectionHeader(t *testing.T) {
	var head [12]byte
	binary.LittleEndian.PutUint32(head[0:4], blockSectionHeader)
	binary.LittleEndian.PutUint32(head[4:8], maxBlockLen+4)
	binary.LittleEndian.PutUint32(head[8:12], byteOrderMagic)
	var err error
	n := allocatedDuring(func() { _, err = NewNgReader(bytes.NewReader(head[:])) })
	if err == nil {
		t.Error("hostile section header accepted")
	}
	if n > 1<<20 {
		t.Errorf("hostile section header allocated %d bytes", n)
	}
}

func TestPcapngRejectsGarbage(t *testing.T) {
	if _, err := NewNgReader(bytes.NewReader([]byte("definitely not pcapng"))); err == nil {
		t.Error("garbage accepted")
	}
	// Valid SHB then a block with mismatched trailing length.
	var buf bytes.Buffer
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:4], byteOrderMagic)
	writeNgBlock(&buf, blockSectionHeader, shb)
	binary.Write(&buf, binary.LittleEndian, uint32(blockEnhancedPacket))
	binary.Write(&buf, binary.LittleEndian, uint32(16))
	buf.Write([]byte{0, 0, 0, 0})
	binary.Write(&buf, binary.LittleEndian, uint32(99)) // wrong trailer
	ng, err := NewNgReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ng.Next(); err == nil || err == io.EOF {
		t.Errorf("mismatched trailer: err = %v", err)
	}
}
