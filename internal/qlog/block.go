package qlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"ldplayer/internal/trace"
)

// The LDQLOG02 block stream, qlog's one binary encoding (files and the
// TCP sink alike): events grouped into internal/trace's block frame
// (40-byte header: count, raw/stored lengths, first/last timestamps,
// CRC-32C — built and opened by trace.Framer / trace.FrameReader) with a
// varint/delta payload. Timestamps are deltas against the previous
// event, latencies and the small integer fields are varints, and with
// the DEFLATE codec the whole payload deflates as one unit — repetitive
// capture fields (same peer, same view, same qname suffixes) compress
// across events. Blocks that fail to shrink are stored raw, so a hostile
// or incompressible stream never grows past the raw codec.
//
//	file  := magic8 "LDQLOG02" block*
//	block := trace block header | payload (DEFLATE or raw per header codec)
//	event := timeΔ zigzag-varint | latency zigzag-varint |
//	         u8 fam(0|4|16) addr[fam] |
//	         uvarint id | uvarint qtype | uvarint qclass |
//	         u8 rcode | u8 transport | u8 flags |
//	         uvarint viewLen view | uvarint qnameLen qname
//
// There is no footer index: qlog files are append-and-rotate streams,
// read sequentially. A file cut mid-block (crash, kill -9) yields every
// complete block and then io.ErrUnexpectedEOF.

var qlogBlockMagic = [8]byte{'L', 'D', 'Q', 'L', 'O', 'G', '0', '2'}

// Block geometry: cut at whichever limit hits first.
const (
	blockEvents   = 1024
	blockMaxBytes = 256 * 1024
)

var errQlogBlockColumn = errors.New("qlog: block event truncated or malformed")

// BlockWriter writes the LDQLOG02 block stream. Flush cuts the
// in-progress block — frequent flushing costs compression, which is why
// the file sink only flushes at rotation and Close.
type BlockWriter struct {
	w         *bufio.Writer
	framer    *trace.Framer
	wroteHead bool
	bytes     int64

	count     int
	firstNano int64
	lastNano  int64
	prevNano  int64
	payload   []byte
}

// NewBlockWriter creates a BlockWriter on w; compress selects the DEFLATE
// block codec over raw blocks.
func NewBlockWriter(w io.Writer, compress bool) *BlockWriter {
	codec := trace.BlockRaw
	if compress {
		codec = trace.BlockFlate
	}
	return &BlockWriter{w: bufio.NewWriterSize(w, 256*1024), framer: trace.NewFramer(codec, false)}
}

// Write implements the event-writer surface: the event joins the
// current block, which is cut at the block geometry.
func (w *BlockWriter) Write(ev *Event) error {
	if !w.wroteHead {
		if _, err := w.w.Write(qlogBlockMagic[:]); err != nil {
			return err
		}
		w.bytes += int64(len(qlogBlockMagic))
		w.wroteHead = true
	}
	if w.count == 0 {
		w.firstNano = ev.Time
		w.prevNano = ev.Time
	}
	w.lastNano = ev.Time

	p := w.payload
	p = binary.AppendVarint(p, ev.Time-w.prevNano)
	w.prevNano = ev.Time
	p = binary.AppendVarint(p, ev.Latency)
	switch {
	case ev.Peer.Is4():
		a := ev.Peer.As4()
		p = append(p, 4)
		p = append(p, a[:]...)
	case ev.Peer.Is6():
		a := ev.Peer.As16()
		p = append(p, 16)
		p = append(p, a[:]...)
	default:
		p = append(p, 0)
	}
	p = binary.AppendUvarint(p, uint64(ev.ID))
	p = binary.AppendUvarint(p, uint64(ev.QType))
	p = binary.AppendUvarint(p, uint64(ev.QClass))
	p = append(p, ev.Rcode, ev.Transport, ev.Flags)
	view := ev.View
	if len(view) > 255 {
		view = view[:255]
	}
	p = binary.AppendUvarint(p, uint64(len(view)))
	p = append(p, view...)
	p = binary.AppendUvarint(p, uint64(ev.QNameLen))
	p = append(p, ev.QName[:ev.QNameLen]...)
	w.payload = p
	w.count++

	if w.count >= blockEvents || len(w.payload) >= blockMaxBytes {
		return w.cutBlock()
	}
	return nil
}

// cutBlock frames and writes the accumulated block.
func (w *BlockWriter) cutBlock() error {
	if w.count == 0 {
		return nil
	}
	n, err := w.framer.WriteFrame(w.w, w.count, w.firstNano, w.lastNano, w.payload)
	if err != nil {
		return err
	}
	w.bytes += int64(n)
	w.count = 0
	w.payload = w.payload[:0]
	return nil
}

// Flush cuts the in-progress block and flushes buffered output.
func (w *BlockWriter) Flush() error {
	if err := w.cutBlock(); err != nil {
		return err
	}
	return w.w.Flush()
}

// BytesWritten is the total stream size produced so far (including
// bytes still in the bufio buffer).
func (w *BlockWriter) BytesWritten() int64 { return w.bytes }

// blockCursor decodes events sequentially out of one inflated payload:
// buf is what is left of it, remain the events still in it.
type blockCursor struct {
	buf      []byte
	remain   uint32
	prevNano int64
}

// next decodes one event off the front of c.buf.
func (c *blockCursor) next(ev *Event) error {
	cur := trace.VarCursor{Buf: c.buf}
	dt, ok := cur.Varint()
	if !ok {
		return errQlogBlockColumn
	}
	c.prevNano += dt
	ev.Time = c.prevNano
	if ev.Latency, ok = cur.Varint(); !ok {
		return errQlogBlockColumn
	}
	famB, ok := cur.Take(1)
	if !ok {
		return errQlogBlockColumn
	}
	switch famB[0] {
	case 0:
		ev.Peer = netip.Addr{}
	case 4:
		a, ok := cur.Take(4)
		if !ok {
			return errQlogBlockColumn
		}
		ev.Peer = netip.AddrFrom4([4]byte(a))
	case 16:
		a, ok := cur.Take(16)
		if !ok {
			return errQlogBlockColumn
		}
		ev.Peer = netip.AddrFrom16([16]byte(a))
	default:
		return fmt.Errorf("qlog: bad peer family %d in block", famB[0])
	}
	id, ok := cur.Uvarint()
	if !ok || id > 0xffff {
		return errQlogBlockColumn
	}
	ev.ID = uint16(id)
	qt, ok := cur.Uvarint()
	if !ok || qt > 0xffff {
		return errQlogBlockColumn
	}
	ev.QType = uint16(qt)
	qc, ok := cur.Uvarint()
	if !ok || qc > 0xffff {
		return errQlogBlockColumn
	}
	ev.QClass = uint16(qc)
	fixed, ok := cur.Take(3)
	if !ok {
		return errQlogBlockColumn
	}
	ev.Rcode, ev.Transport, ev.Flags = fixed[0], fixed[1], fixed[2]
	vlen, ok := cur.Uvarint()
	if !ok || vlen > 255 {
		return errQlogBlockColumn
	}
	view, ok := cur.Take(int(vlen))
	if !ok {
		return errQlogBlockColumn
	}
	ev.View = string(view)
	qlen, ok := cur.Uvarint()
	if !ok || qlen > MaxQName {
		return errQlogBlockColumn
	}
	qname, ok := cur.Take(int(qlen))
	if !ok {
		return errQlogBlockColumn
	}
	ev.QNameLen = uint8(copy(ev.QName[:], qname))
	c.buf = cur.Buf[cur.Off:]
	c.remain--
	return nil
}

// Reader reads the LDQLOG02 stream a file or TCP sink produced.
type Reader struct {
	r   *bufio.Reader
	fr  *trace.FrameReader
	cur blockCursor
}

// NewReader creates a Reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 256*1024)}
}

// Next decodes the next event into ev. It returns io.EOF at a clean end
// of stream and a wrapped io.ErrUnexpectedEOF when the stream stops
// mid-block (a killed TCP connection, a crash mid-write).
func (r *Reader) Next(ev *Event) error {
	if r.fr == nil {
		var magic [8]byte
		if _, err := io.ReadFull(r.r, magic[:]); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("qlog: reading magic: %w", err)
		}
		if magic != qlogBlockMagic {
			return fmt.Errorf("qlog: bad magic %q", magic[:])
		}
		r.fr = trace.NewFrameReader(r.r)
	}
	for r.cur.remain == 0 {
		hdr, raw, err := r.fr.Next()
		if err != nil {
			return err
		}
		r.cur = blockCursor{buf: raw, remain: hdr.Count, prevNano: hdr.FirstNano}
	}
	return r.cur.next(ev)
}
