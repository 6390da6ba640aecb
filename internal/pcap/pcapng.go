package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"ldplayer/internal/trace"
)

// pcapng reading (the format modern tcpdump/wireshark default to).
// LDplayer consumes Section Header, Interface Description, Enhanced
// Packet, and (legacy) Simple Packet blocks; every other block type is
// skipped. Multiple sections and per-interface timestamp resolutions are
// handled.

// pcapng block type codes.
const (
	blockSectionHeader  = 0x0A0D0D0A
	blockInterfaceDesc  = 0x00000001
	blockEnhancedPacket = 0x00000006
	blockSimplePacket   = 0x00000003
)

const byteOrderMagic = 0x1A2B3C4D

// maxBlockLen caps every block's total length, section headers included,
// before its body is allocated.
const maxBlockLen = 1 << 26

// ngInterface records what LDplayer needs per interface.
type ngInterface struct {
	linkType uint32
	// tsDivisor converts raw timestamps to seconds (units per second).
	tsDivisor uint64
}

// NgReader reads packets from a pcapng stream.
type NgReader struct {
	r          io.Reader
	order      binary.ByteOrder
	interfaces []ngInterface
}

// NewNgReader parses the first Section Header Block from r.
func NewNgReader(r io.Reader) (*NgReader, error) {
	ng := &NgReader{r: r}
	if err := ng.readSectionHeader(); err != nil {
		return nil, err
	}
	return ng, nil
}

func (ng *NgReader) readSectionHeader() error {
	// Block type (4) + length (4) + byte-order magic (4).
	var head [12]byte
	if _, err := io.ReadFull(ng.r, head[:]); err != nil {
		return fmt.Errorf("pcapng: section header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:4]) != blockSectionHeader {
		return fmt.Errorf("pcapng: not a section header block")
	}
	switch binary.LittleEndian.Uint32(head[8:12]) {
	case byteOrderMagic:
		ng.order = binary.LittleEndian
	case 0x4D3C2B1A:
		ng.order = binary.BigEndian
	default:
		return fmt.Errorf("pcapng: bad byte-order magic")
	}
	total := ng.order.Uint32(head[4:8])
	if total < 28 || total%4 != 0 || total > maxBlockLen {
		return fmt.Errorf("pcapng: bad section header length %d", total)
	}
	// Skip the rest of the block (version, section length, options,
	// trailing length).
	rest := make([]byte, total-12)
	if _, err := io.ReadFull(ng.r, rest); err != nil {
		return err
	}
	ng.interfaces = ng.interfaces[:0]
	return nil
}

// readBlock returns the next block's type and body (without the trailing
// length field).
func (ng *NgReader) readBlock() (uint32, []byte, error) {
	var head [8]byte
	if _, err := io.ReadFull(ng.r, head[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	typ := ng.order.Uint32(head[0:4])
	total := ng.order.Uint32(head[4:8])
	if total < 12 || total%4 != 0 || total > maxBlockLen {
		return 0, nil, fmt.Errorf("pcapng: bad block length %d", total)
	}
	body := make([]byte, total-8)
	if _, err := io.ReadFull(ng.r, body); err != nil {
		return 0, nil, fmt.Errorf("pcapng: truncated block: %w", err)
	}
	// Verify the trailing total-length copy.
	if got := ng.order.Uint32(body[len(body)-4:]); got != total {
		return 0, nil, fmt.Errorf("pcapng: block length mismatch %d != %d", got, total)
	}
	return typ, body[:len(body)-4], nil
}

// handleInterfaceDesc parses an IDB, extracting link type and timestamp
// resolution (the if_tsresol option, default 10^-6).
func (ng *NgReader) handleInterfaceDesc(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("pcapng: short interface description")
	}
	iface := ngInterface{
		linkType:  uint32(ng.order.Uint16(body[0:2])),
		tsDivisor: 1_000_000,
	}
	// Options start after linktype(2) + reserved(2) + snaplen(4).
	opts := body[8:]
	for len(opts) >= 4 {
		code := ng.order.Uint16(opts[0:2])
		olen := int(ng.order.Uint16(opts[2:4]))
		opts = opts[4:]
		if olen > len(opts) {
			break
		}
		if code == 9 && olen >= 1 { // if_tsresol
			v := opts[0]
			if v&0x80 != 0 {
				iface.tsDivisor = 1 << (v & 0x7F)
			} else {
				iface.tsDivisor = pow10(int(v))
			}
		}
		if code == 0 { // opt_endofopt
			break
		}
		opts = opts[(olen+3)&^3:]
	}
	ng.interfaces = append(ng.interfaces, iface)
	return nil
}

func pow10(n int) uint64 {
	out := uint64(1)
	for i := 0; i < n && i < 19; i++ {
		out *= 10
	}
	return out
}

// Next returns the next packet with its link type.
func (ng *NgReader) Next() (PacketInfo, uint32, []byte, error) {
	for {
		typ, body, err := ng.readBlock()
		if err != nil {
			return PacketInfo{}, 0, nil, err
		}
		switch typ {
		case blockSectionHeader:
			// A new section starts mid-stream: body begins with the
			// byte-order magic; re-derive endianness.
			if len(body) >= 4 {
				switch binary.LittleEndian.Uint32(body[0:4]) {
				case byteOrderMagic:
					ng.order = binary.LittleEndian
				default:
					ng.order = binary.BigEndian
				}
			}
			ng.interfaces = ng.interfaces[:0]
		case blockInterfaceDesc:
			if err := ng.handleInterfaceDesc(body); err != nil {
				return PacketInfo{}, 0, nil, err
			}
		case blockEnhancedPacket:
			if len(body) < 20 {
				return PacketInfo{}, 0, nil, fmt.Errorf("pcapng: short EPB")
			}
			ifIdx := ng.order.Uint32(body[0:4])
			if int(ifIdx) >= len(ng.interfaces) {
				return PacketInfo{}, 0, nil, fmt.Errorf("pcapng: EPB references unknown interface %d", ifIdx)
			}
			iface := ng.interfaces[ifIdx]
			ts := uint64(ng.order.Uint32(body[4:8]))<<32 | uint64(ng.order.Uint32(body[8:12]))
			capLen := int(ng.order.Uint32(body[12:16]))
			origLen := int(ng.order.Uint32(body[16:20]))
			if 20+capLen > len(body) {
				return PacketInfo{}, 0, nil, fmt.Errorf("pcapng: EPB capture length %d overflows block", capLen)
			}
			sec := ts / iface.tsDivisor
			frac := ts % iface.tsDivisor
			nanos := frac * uint64(time.Second) / iface.tsDivisor
			info := PacketInfo{
				Timestamp:      time.Unix(int64(sec), int64(nanos)),
				CaptureLength:  capLen,
				OriginalLength: origLen,
			}
			data := append([]byte(nil), body[20:20+capLen]...)
			return info, iface.linkType, data, nil
		case blockSimplePacket:
			if len(ng.interfaces) == 0 {
				return PacketInfo{}, 0, nil, fmt.Errorf("pcapng: SPB before any interface")
			}
			if len(body) < 4 {
				return PacketInfo{}, 0, nil, fmt.Errorf("pcapng: short SPB")
			}
			origLen := int(ng.order.Uint32(body[0:4]))
			capLen := origLen
			if capLen > len(body)-4 {
				capLen = len(body) - 4
			}
			info := PacketInfo{CaptureLength: capLen, OriginalLength: origLen}
			data := append([]byte(nil), body[4:4+capLen]...)
			return info, ng.interfaces[0].linkType, data, nil
		default:
			// Name resolution, statistics, custom blocks: skip.
		}
	}
}

// NewNgTraceReader adapts a pcapng stream into a trace.Reader of DNS
// entries, mirroring NewTraceReader for classic pcap.
func NewNgTraceReader(r io.Reader) (*NgTraceReader, error) {
	ng, err := NewNgReader(r)
	if err != nil {
		return nil, err
	}
	return &NgTraceReader{ng: ng, x: NewExtractor()}, nil
}

// NgTraceReader extracts DNS entries from a pcapng stream.
type NgTraceReader struct {
	ng      *NgReader
	x       *Extractor
	pending []trace.Entry
}

// Next implements trace.Reader.
func (tr *NgTraceReader) Next() (trace.Entry, error) {
	for {
		if len(tr.pending) > 0 {
			e := tr.pending[0]
			tr.pending = tr.pending[1:]
			return e, nil
		}
		info, linkType, data, err := tr.ng.Next()
		if err != nil {
			return trace.Entry{}, err
		}
		entries, err := tr.x.Packet(linkType, info, data)
		if err != nil {
			continue
		}
		tr.pending = entries
	}
}
