// Package pcap reads and writes libpcap capture files and decodes the
// Ethernet/IPv4/IPv6/UDP/TCP layers LDplayer needs to lift DNS messages
// out of network traces. The layer design follows gopacket's
// DecodingLayer idiom: fixed structs decoded in place from byte slices,
// no per-packet allocation on the hot path.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Link types (pcap network field).
const (
	LinkTypeEthernet uint32 = 1
	LinkTypeRaw      uint32 = 101 // raw IP, no link header
)

const (
	magicMicros        = 0xa1b2c3d4
	magicNanos         = 0xa1b23c4d
	magicMicrosSwapped = 0xd4c3b2a1
	magicNanosSwapped  = 0x4d3cb2a1
)

// maxSnapLen is libpcap's largest snapshot length. Reader rejects any
// record longer than this whatever the file header's snaplen says, so a
// 16-byte record header cannot ask for a multi-GiB allocation.
const maxSnapLen = 262144

// PacketInfo is the per-packet record header.
type PacketInfo struct {
	Timestamp time.Time
	// CaptureLength is the number of octets present in the file.
	CaptureLength int
	// OriginalLength is the packet's length on the wire.
	OriginalLength int
}

// Reader reads packets from a pcap file.
type Reader struct {
	r        io.Reader
	order    binary.ByteOrder
	nanos    bool
	LinkType uint32
	hdr      [16]byte
}

// NewReader parses the global header from r.
func NewReader(r io.Reader) (*Reader, error) {
	var gh [24]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	pr := &Reader{r: r}
	magic := binary.LittleEndian.Uint32(gh[:4])
	switch magic {
	case magicMicros:
		pr.order = binary.LittleEndian
	case magicNanos:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicMicrosSwapped:
		pr.order = binary.BigEndian
	case magicNanosSwapped:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("pcap: bad magic %#x", magic)
	}
	pr.LinkType = pr.order.Uint32(gh[20:24])
	return pr, nil
}

// Next returns the next packet's info and data. Data is freshly allocated
// per packet.
func (pr *Reader) Next() (PacketInfo, []byte, error) {
	if _, err := io.ReadFull(pr.r, pr.hdr[:]); err != nil {
		if err == io.EOF {
			return PacketInfo{}, nil, io.EOF
		}
		return PacketInfo{}, nil, fmt.Errorf("pcap: packet header: %w", err)
	}
	sec := int64(pr.order.Uint32(pr.hdr[0:4]))
	sub := int64(pr.order.Uint32(pr.hdr[4:8]))
	incl := pr.order.Uint32(pr.hdr[8:12])
	orig := pr.order.Uint32(pr.hdr[12:16])
	if incl > maxSnapLen {
		return PacketInfo{}, nil, fmt.Errorf("pcap: capture length %d exceeds %d", incl, maxSnapLen)
	}
	data := make([]byte, incl)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return PacketInfo{}, nil, fmt.Errorf("pcap: truncated packet: %w", err)
	}
	ts := time.Unix(sec, sub*1000)
	if pr.nanos {
		ts = time.Unix(sec, sub)
	}
	return PacketInfo{
		Timestamp:      ts,
		CaptureLength:  int(incl),
		OriginalLength: int(orig),
	}, data, nil
}

// Writer writes packets to a pcap file (microsecond timestamps).
type Writer struct {
	w        io.Writer
	linkType uint32
	wrote    bool
}

// NewWriter creates a Writer producing linkType packets.
func NewWriter(w io.Writer, linkType uint32) *Writer {
	return &Writer{w: w, linkType: linkType}
}

func (pw *Writer) writeGlobalHeader() error {
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:4], magicMicros)
	binary.LittleEndian.PutUint16(gh[4:6], 2) // version major
	binary.LittleEndian.PutUint16(gh[6:8], 4) // version minor
	binary.LittleEndian.PutUint32(gh[16:20], maxSnapLen)
	binary.LittleEndian.PutUint32(gh[20:24], pw.linkType)
	_, err := pw.w.Write(gh[:])
	return err
}

// WritePacket appends one packet.
func (pw *Writer) WritePacket(ts time.Time, data []byte) error {
	if !pw.wrote {
		if err := pw.writeGlobalHeader(); err != nil {
			return err
		}
		pw.wrote = true
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(data)))
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(data)
	return err
}
