package trace

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/netip"
	"time"
)

// The LDTRC02 block trace format — the "customized binary stream of
// internal messages" of §2.5/Figure 3. Entries are grouped into
// self-describing blocks so ingestion parallelizes and compresses, and a
// reader can find entry N without reading entries 0..N-1:
//
//	file   := magic8 block* index trailer
//	block  := header(40B) payload
//	header := u32 blockMagic | u8 codec | u8 flags | u16 reserved |
//	          u32 count | u32 rawLen | u32 storedLen |
//	          i64 firstUnixNano | i64 lastUnixNano | u32 crc32c(payload)
//
// The payload is columnar. Addresses are block-local dictionaries
// (traces revisit the same sources constantly, so an address costs its
// bytes once per block and a short varint per entry after that). Ports
// are fixed-width columns of their own, deliberately outside the
// dictionary: real traces carry a fresh ephemeral source port per
// query, so keying the dictionary on (addr,port) would degenerate it to
// one table entry per trace entry. Timestamps and message lengths are
// zigzag-varint deltas, and the wire messages are one contiguous blob
// at the tail — which is what makes zero-copy ingestion possible: a
// decoded Entry's Message aliases the blob (the mmap itself for
// codec 0) instead of a per-entry copy.
//
//	payload := srcDict dstDict srcIdx* dstIdx* srcPort* dstPort*
//	           proto* timeΔ* lenΔ* msgBlob          (ports u16 BE)
//	dict    := uvarint n, then n × (u8 fam(4|16) | addr[fam])
//
// codec 0 stores the payload raw; codec 1 DEFLATEs it (storedLen is the
// on-disk size, rawLen the decoded size). The writer picks per block:
// with Codec BlockFlate a block that fails to shrink is stored raw, so
// pathological payloads never grow the file. Building and opening the
// frame (codec choice, header, CRC, inflate) lives in frame.go, shared
// with the qlog stream and the controller↔client link.
//
// The index is the seek-and-partition map: per block its file offset,
// entry count, and first/last timestamp. A trailer at EOF points back
// at it. Files cut off before the trailer (a crashed writer) are still
// readable — the reader rebuilds the index by walking block headers.
//
//	index   := u32 indexMagic | u32 nblocks |
//	           nblocks × (i64 offset | u32 count | i64 first | i64 last) |
//	           u32 crc32c(index body)
//	trailer := i64 indexOffset | magic8 trailerMagic

var (
	blockFileMagic = [8]byte{'L', 'D', 'T', 'R', 'C', '0', '2', 0}
	blockTrailer   = [8]byte{'L', 'D', 'I', 'X', 'T', 'R', 'L', 'R'}
)

const (
	blockMagic uint32 = 0x4C444232 // "LDB2"
	indexMagic uint32 = 0x4C444958 // "LDIX"

	blockHeaderSize  = 40
	indexEntrySize   = 28
	blockTrailerSize = 16
)

// Block payload codecs.
const (
	// BlockRaw stores block payloads uncompressed: decode is a column
	// walk and Message bytes alias the stored payload (the mmap, on the
	// fast path) — the replay ingestion codec.
	BlockRaw uint8 = 0
	// BlockFlate DEFLATEs block payloads: the archival codec for
	// multi-day traces. Decode inflates into a fresh slab that entries
	// then alias.
	BlockFlate uint8 = 1
)

// Hard bounds a reader enforces before allocating anything a hostile
// header asks for.
const (
	// MaxBlockEntries bounds the per-block entry count.
	MaxBlockEntries = 1 << 20
	// maxBlockRaw bounds a decoded block payload (64 MiB).
	maxBlockRaw = 64 << 20
	// maxBlockStored bounds an on-disk block payload: DEFLATE can expand
	// incompressible input by a few bytes per 64 KiB window, never more.
	maxBlockStored = maxBlockRaw + maxBlockRaw/1000 + 64
	// minBytesPerEntry is the smallest on-wire footprint one entry can
	// have in a raw payload (src idx + dst idx + proto + timeΔ + lenΔ at
	// one byte each, plus two u16 ports, empty message): count is
	// cross-checked against rawLen with it, so count can never force an
	// allocation rawLen doesn't pay for.
	minBytesPerEntry = 9
)

// Default writer geometry: blocks cut at whichever limit hits first.
const (
	// DefaultBlockEntries is the default entries-per-block target.
	DefaultBlockEntries = 4096
	// defaultBlockBytes caps the raw message bytes buffered per block.
	defaultBlockBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors are hoisted package vars so the per-block decode path
// stays allocation-free on malformed-input checks too.
var (
	errBlockMagic    = errors.New("trace: bad block magic")
	errBlockCodec    = errors.New("trace: unknown block codec")
	errBlockBounds   = errors.New("trace: block header exceeds format bounds")
	errBlockCRC      = errors.New("trace: block payload CRC mismatch")
	errBlockTruncPay = errors.New("trace: block payload truncated")
	errBlockColumn   = errors.New("trace: block column truncated or malformed")
	errBlockDictIdx  = errors.New("trace: block dictionary index out of range")
	errBlockMsgLen   = errors.New("trace: block message length out of range")
	errBlockProto    = errors.New("trace: bad protocol in block")
	errIndexMagic    = errors.New("trace: bad index magic")
	errIndexCRC      = errors.New("trace: index CRC mismatch")
)

// BlockHeader is the parsed 40-byte per-block header.
type BlockHeader struct {
	Codec     uint8
	Flags     uint8
	Count     uint32
	RawLen    uint32
	StoredLen uint32
	FirstNano int64
	LastNano  int64
	CRC       uint32
}

// appendBlockHeader appends h's 40-byte encoding to dst.
func appendBlockHeader(dst []byte, h BlockHeader) []byte {
	dst = binary.BigEndian.AppendUint32(dst, blockMagic)
	dst = append(dst, h.Codec, h.Flags, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, h.Count)
	dst = binary.BigEndian.AppendUint32(dst, h.RawLen)
	dst = binary.BigEndian.AppendUint32(dst, h.StoredLen)
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.FirstNano))
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.LastNano))
	dst = binary.BigEndian.AppendUint32(dst, h.CRC)
	return dst
}

// BlockHeaderSize is the encoded size of a block header.
const BlockHeaderSize = blockHeaderSize

// ParseBlockHeader decodes and bounds-checks a block header. It rejects
// anything a reader should not allocate for: oversized counts and
// lengths, counts a raw payload cannot actually hold, unknown codecs.
func ParseBlockHeader(buf []byte) (BlockHeader, error) {
	var h BlockHeader
	if len(buf) < blockHeaderSize {
		return h, io.ErrUnexpectedEOF
	}
	if binary.BigEndian.Uint32(buf) != blockMagic {
		return h, errBlockMagic
	}
	h.Codec = buf[4]
	h.Flags = buf[5]
	h.Count = binary.BigEndian.Uint32(buf[8:])
	h.RawLen = binary.BigEndian.Uint32(buf[12:])
	h.StoredLen = binary.BigEndian.Uint32(buf[16:])
	h.FirstNano = int64(binary.BigEndian.Uint64(buf[20:]))
	h.LastNano = int64(binary.BigEndian.Uint64(buf[28:]))
	h.CRC = binary.BigEndian.Uint32(buf[36:])
	if h.Codec != BlockRaw && h.Codec != BlockFlate {
		return h, errBlockCodec
	}
	if h.Count > MaxBlockEntries || h.RawLen > maxBlockRaw || h.StoredLen > maxBlockStored {
		return h, errBlockBounds
	}
	if h.Codec == BlockRaw && h.StoredLen != h.RawLen {
		return h, errBlockBounds
	}
	if h.Count > 0 && uint64(h.RawLen) < uint64(h.Count)*minBytesPerEntry {
		return h, errBlockBounds
	}
	return h, nil
}

// blockCRC is the payload checksum used by the block frame (CRC-32C).
func blockCRC(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// IndexEntry locates one block inside a block trace file.
type IndexEntry struct {
	// Offset is the block header's position from the start of the file.
	Offset int64
	// Count is the block's entry count.
	Count uint32
	// FirstNano and LastNano bracket the block's timestamps.
	FirstNano int64
	LastNano  int64
}

// appendIndex appends the footer index + trailer for blocks to dst.
// fileOff is the file offset the index will land at — the trailer points
// back to it.
func appendIndex(dst []byte, blocks []IndexEntry, fileOff int64) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, indexMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blocks)))
	for _, b := range blocks {
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Offset))
		dst = binary.BigEndian.AppendUint32(dst, b.Count)
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.FirstNano))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.LastNano))
	}
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start+4:], castagnoli))
	dst = binary.BigEndian.AppendUint64(dst, uint64(fileOff))
	return append(dst, blockTrailer[:]...)
}

// parseIndex decodes a footer index (starting at the index magic).
func parseIndex(buf []byte) ([]IndexEntry, error) {
	if len(buf) < 8+4 {
		return nil, io.ErrUnexpectedEOF
	}
	if binary.BigEndian.Uint32(buf) != indexMagic {
		return nil, errIndexMagic
	}
	n := int(binary.BigEndian.Uint32(buf[4:]))
	body := 8 + n*indexEntrySize
	if n < 0 || len(buf) < body+4 {
		return nil, io.ErrUnexpectedEOF
	}
	if binary.BigEndian.Uint32(buf[body:]) != crc32.Checksum(buf[4:body], castagnoli) {
		return nil, errIndexCRC
	}
	idx := make([]IndexEntry, n)
	for i := range idx {
		off := 8 + i*indexEntrySize
		idx[i] = IndexEntry{
			Offset:    int64(binary.BigEndian.Uint64(buf[off:])),
			Count:     binary.BigEndian.Uint32(buf[off+8:]),
			FirstNano: int64(binary.BigEndian.Uint64(buf[off+12:])),
			LastNano:  int64(binary.BigEndian.Uint64(buf[off+20:])),
		}
	}
	return idx, nil
}

// BlockWriterOptions shape a BlockWriter.
type BlockWriterOptions struct {
	// Codec is BlockRaw (default, replay-speed) or BlockFlate
	// (archival). Flate blocks that fail to shrink are stored raw.
	Codec uint8
	// BlockEntries cuts a block after this many entries (default
	// DefaultBlockEntries).
	BlockEntries int
	// BlockBytes cuts a block once its raw message bytes reach this
	// (default 1 MiB), so huge messages cannot balloon a block.
	BlockBytes int
}

// BlockWriter writes the LDTRC02 block format. It implements Writer;
// Close (not just Flush) finishes the file — it cuts the final block and
// writes the footer index the reader seeks and partitions by.
type BlockWriter struct {
	w    io.Writer
	opts BlockWriterOptions

	wroteHead bool
	off       int64
	blocks    []IndexEntry

	// Per-block accumulation: columnar scratch buffers plus the
	// dictionaries mapping addresses to block-local indices. Ports live
	// in their own fixed-width columns, NOT in the dictionary: real
	// traces carry a fresh ephemeral source port per query, so an
	// (addr,port)-keyed dictionary degenerates to one table entry per
	// entry and costs more than the addresses it was meant to dedup.
	count     int
	firstNano int64
	lastNano  int64
	prevNano  int64
	prevLen   int64
	srcDict   map[netip.Addr]uint32
	dstDict   map[netip.Addr]uint32
	srcTab    []byte // encoded dictionary entries, in index order
	dstTab    []byte
	srcIdx    []byte
	dstIdx    []byte
	srcPorts  []byte // u16 BE per entry
	dstPorts  []byte
	protos    []byte
	times     []byte
	lens      []byte
	msgs      []byte

	scratch []byte // assembled payload (and footer index) staging
	framer  *Framer
}

// NewBlockWriter creates a BlockWriter on w with default options.
func NewBlockWriter(w io.Writer) *BlockWriter {
	return NewBlockWriterOptions(w, BlockWriterOptions{})
}

// NewBlockWriterOptions creates a BlockWriter with explicit options.
func NewBlockWriterOptions(w io.Writer, opts BlockWriterOptions) *BlockWriter {
	if opts.BlockEntries <= 0 {
		opts.BlockEntries = DefaultBlockEntries
	}
	if opts.BlockEntries > MaxBlockEntries {
		opts.BlockEntries = MaxBlockEntries
	}
	if opts.BlockBytes <= 0 {
		opts.BlockBytes = defaultBlockBytes
	}
	return &BlockWriter{
		w:       w,
		opts:    opts,
		srcDict: make(map[netip.Addr]uint32),
		dstDict: make(map[netip.Addr]uint32),
		// BlockFlate here is the archival codec: encode cost is paid once
		// at conversion time.
		framer: NewFramer(opts.Codec, true),
	}
}

// appendDictAddr encodes one dictionary entry (fam, addr).
func appendDictAddr(dst []byte, a netip.Addr) []byte {
	if a.Is4() || a.Is4In6() {
		a4 := a.As4()
		dst = append(dst, 4)
		dst = append(dst, a4[:]...)
	} else {
		a16 := a.As16()
		dst = append(dst, 16)
		dst = append(dst, a16[:]...)
	}
	return dst
}

// dictIndex interns a in dict/tab and returns its block-local index.
func (b *BlockWriter) dictIndex(dict map[netip.Addr]uint32, tab *[]byte, a netip.Addr) uint32 {
	if i, ok := dict[a]; ok {
		return i
	}
	i := uint32(len(dict))
	dict[a] = i
	*tab = appendDictAddr(*tab, a)
	return i
}

// Write implements Writer: the entry joins the current block's columns,
// and the block is cut when it reaches the configured geometry.
func (b *BlockWriter) Write(e Entry) error {
	if !b.wroteHead {
		if _, err := b.w.Write(blockFileMagic[:]); err != nil {
			return err
		}
		b.off = int64(len(blockFileMagic))
		b.wroteHead = true
	}
	nano := e.Time.UnixNano()
	if b.count == 0 {
		b.firstNano = nano
		b.prevNano = nano
		b.prevLen = 0
	}
	b.lastNano = nano

	b.srcIdx = binary.AppendUvarint(b.srcIdx, uint64(b.dictIndex(b.srcDict, &b.srcTab, e.Src.Addr())))
	b.dstIdx = binary.AppendUvarint(b.dstIdx, uint64(b.dictIndex(b.dstDict, &b.dstTab, e.Dst.Addr())))
	b.srcPorts = binary.BigEndian.AppendUint16(b.srcPorts, e.Src.Port())
	b.dstPorts = binary.BigEndian.AppendUint16(b.dstPorts, e.Dst.Port())
	b.protos = append(b.protos, byte(e.Protocol))
	b.times = binary.AppendVarint(b.times, nano-b.prevNano)
	b.prevNano = nano
	b.lens = binary.AppendVarint(b.lens, int64(len(e.Message))-b.prevLen)
	b.prevLen = int64(len(e.Message))
	b.msgs = append(b.msgs, e.Message...)
	b.count++

	if b.count >= b.opts.BlockEntries || len(b.msgs) >= b.opts.BlockBytes {
		return b.cutBlock()
	}
	return nil
}

// cutBlock assembles and frames the current block, then resets the
// per-block state.
func (b *BlockWriter) cutBlock() error {
	if b.count == 0 {
		return nil
	}
	p := b.scratch[:0]
	p = binary.AppendUvarint(p, uint64(len(b.srcDict)))
	p = append(p, b.srcTab...)
	p = binary.AppendUvarint(p, uint64(len(b.dstDict)))
	p = append(p, b.dstTab...)
	p = append(p, b.srcIdx...)
	p = append(p, b.dstIdx...)
	p = append(p, b.srcPorts...)
	p = append(p, b.dstPorts...)
	p = append(p, b.protos...)
	p = append(p, b.times...)
	p = append(p, b.lens...)
	p = append(p, b.msgs...)
	b.scratch = p

	n, err := b.framer.WriteFrame(b.w, b.count, b.firstNano, b.lastNano, p)
	if err != nil {
		return err
	}
	b.blocks = append(b.blocks, IndexEntry{
		Offset:    b.off,
		Count:     uint32(b.count),
		FirstNano: b.firstNano,
		LastNano:  b.lastNano,
	})
	b.off += int64(n)

	b.count = 0
	clear(b.srcDict)
	clear(b.dstDict)
	b.srcTab = b.srcTab[:0]
	b.dstTab = b.dstTab[:0]
	b.srcIdx = b.srcIdx[:0]
	b.dstIdx = b.dstIdx[:0]
	b.srcPorts = b.srcPorts[:0]
	b.dstPorts = b.dstPorts[:0]
	b.protos = b.protos[:0]
	b.times = b.times[:0]
	b.lens = b.lens[:0]
	b.msgs = b.msgs[:0]
	return nil
}

// Flush cuts the in-progress block so everything written so far is on
// the wire. It does NOT write the footer index; call Close to finish
// the file.
func (b *BlockWriter) Flush() error { return b.cutBlock() }

// Close cuts the final block and writes the footer index + trailer. The
// underlying writer is not closed. A file abandoned before Close is
// still readable (the reader rebuilds the index by scanning), it just
// cannot be partitioned without that scan.
func (b *BlockWriter) Close() error {
	if err := b.cutBlock(); err != nil {
		return err
	}
	if !b.wroteHead {
		// An empty trace still gets a valid (zero-block) file.
		if _, err := b.w.Write(blockFileMagic[:]); err != nil {
			return err
		}
		b.off = int64(len(blockFileMagic))
		b.wroteHead = true
	}
	_, err := b.w.Write(appendIndex(b.scratch[:0], b.blocks, b.off))
	return err
}

// blockColumns is the parsed view of one raw block payload: dictionary
// slices plus cursors over each column. Decoding an entry advances every
// cursor once; all bounds were pre-validated against the header.
type blockColumns struct {
	src, dst []netip.Addr
	srcIdx   VarCursor
	dstIdx   VarCursor
	srcPorts []byte // u16 BE per entry
	dstPorts []byte
	protos   []byte
	times    VarCursor
	lens     VarCursor
	msgs     []byte
	msgOff   int
	prevNano int64
	prevLen  int64
}

// VarCursor reads varints and byte runs off the front of Buf; Off is how
// much of Buf has been read. It is the one column walker of both block
// payloads, trace's and qlog's.
type VarCursor struct {
	Buf []byte
	Off int
}

// Uvarint decodes the next unsigned varint; ok=false on truncation or
// overflow.
//
//ldlint:noalloc
func (c *VarCursor) Uvarint() (uint64, bool) {
	v, n := binary.Uvarint(c.Buf[c.Off:])
	if n <= 0 {
		return 0, false
	}
	c.Off += n
	return v, true
}

// Varint decodes the next zigzag varint; ok=false on truncation or
// overflow.
//
//ldlint:noalloc
func (c *VarCursor) Varint() (int64, bool) {
	v, n := binary.Varint(c.Buf[c.Off:])
	if n <= 0 {
		return 0, false
	}
	c.Off += n
	return v, true
}

// Take returns the next n bytes; ok=false when fewer remain.
//
//ldlint:noalloc
func (c *VarCursor) Take(n int) ([]byte, bool) {
	if n < 0 || n > len(c.Buf)-c.Off {
		return nil, false
	}
	b := c.Buf[c.Off : c.Off+n]
	c.Off += n
	return b, true
}

// parseDict reads one address dictionary off the front of buf,
// returning the parsed table and the remaining bytes. The table size is
// bounded by the block entry count: a dictionary can never be larger
// than the number of entries that reference it.
func parseDict(buf []byte, maxEntries uint32) ([]netip.Addr, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 || n > uint64(maxEntries) {
		return nil, nil, errBlockColumn
	}
	buf = buf[w:]
	tab := make([]netip.Addr, n)
	for i := range tab {
		if len(buf) < 1 {
			return nil, nil, errBlockColumn
		}
		fam := int(buf[0])
		if fam != 4 && fam != 16 {
			return nil, nil, errBlockColumn
		}
		if len(buf) < 1+fam {
			return nil, nil, errBlockColumn
		}
		if fam == 4 {
			tab[i] = netip.AddrFrom4([4]byte(buf[1:5]))
		} else {
			tab[i] = netip.AddrFrom16([16]byte(buf[1:17])).Unmap()
		}
		buf = buf[1+fam:]
	}
	return tab, buf, nil
}

// splitColumn carves n varints (or, for width > 0, n fixed-width cells)
// off the front of buf without decoding them, so column extents are
// known before the entry loop runs.
func splitVarColumn(buf []byte, n uint32) (col, rest []byte, err error) {
	off := 0
	for i := uint32(0); i < n; i++ {
		_, w := binary.Uvarint(buf[off:])
		if w <= 0 {
			return nil, nil, errBlockColumn
		}
		off += w
	}
	return buf[:off], buf[off:], nil
}

// parseBlockColumns validates the payload layout of one raw block and
// returns cursors positioned at each column.
func parseBlockColumns(hdr BlockHeader, raw []byte) (blockColumns, error) {
	var bc blockColumns
	var err error
	if bc.src, raw, err = parseDict(raw, hdr.Count); err != nil {
		return bc, err
	}
	if bc.dst, raw, err = parseDict(raw, hdr.Count); err != nil {
		return bc, err
	}
	var col []byte
	if col, raw, err = splitVarColumn(raw, hdr.Count); err != nil {
		return bc, err
	}
	bc.srcIdx = VarCursor{Buf: col}
	if col, raw, err = splitVarColumn(raw, hdr.Count); err != nil {
		return bc, err
	}
	bc.dstIdx = VarCursor{Buf: col}
	// Fixed-width columns: two u16 port columns, then one proto byte per
	// entry. Count is bounded by MaxBlockEntries, so 5*Count cannot
	// overflow.
	if uint64(len(raw)) < 5*uint64(hdr.Count) {
		return bc, errBlockColumn
	}
	bc.srcPorts = raw[:2*hdr.Count]
	raw = raw[2*hdr.Count:]
	bc.dstPorts = raw[:2*hdr.Count]
	raw = raw[2*hdr.Count:]
	bc.protos = raw[:hdr.Count]
	raw = raw[hdr.Count:]
	if col, raw, err = splitVarColumn(raw, hdr.Count); err != nil {
		return bc, err
	}
	bc.times = VarCursor{Buf: col}
	if col, raw, err = splitVarColumn(raw, hdr.Count); err != nil {
		return bc, err
	}
	bc.lens = VarCursor{Buf: col}
	bc.msgs = raw
	bc.prevNano = hdr.FirstNano
	return bc, nil
}

// next decodes one entry from the columns into *e. The entry's Message
// aliases the msgs blob — the caller owns the blob's lifetime and must
// treat it as immutable (the Entry.Message contract).
//
//ldlint:noalloc
func (bc *blockColumns) next(i uint32, e *Entry) error {
	si, ok := bc.srcIdx.Uvarint()
	if !ok || si >= uint64(len(bc.src)) {
		return errBlockDictIdx
	}
	di, ok := bc.dstIdx.Uvarint()
	if !ok || di >= uint64(len(bc.dst)) {
		return errBlockDictIdx
	}
	proto := bc.protos[i]
	if proto > uint8(TLS) {
		return errBlockProto
	}
	dt, ok := bc.times.Varint()
	if !ok {
		return errBlockColumn
	}
	// First entry's delta is relative to the header's FirstNano and must
	// be zero for a well-formed block; tolerate any delta — the format
	// guarantees only what the columns say.
	nano := bc.prevNano + dt
	bc.prevNano = nano
	dl, ok := bc.lens.Varint()
	if !ok {
		return errBlockColumn
	}
	mlen := bc.prevLen + dl
	if mlen < 0 || mlen > int64(len(bc.msgs)-bc.msgOff) {
		return errBlockMsgLen
	}
	bc.prevLen = mlen
	e.Time = time.Unix(0, nano)
	e.Src = netip.AddrPortFrom(bc.src[si], binary.BigEndian.Uint16(bc.srcPorts[2*i:]))
	e.Dst = netip.AddrPortFrom(bc.dst[di], binary.BigEndian.Uint16(bc.dstPorts[2*i:]))
	e.Protocol = Protocol(proto)
	e.Message = bc.msgs[bc.msgOff : bc.msgOff+int(mlen) : bc.msgOff+int(mlen)]
	bc.msgOff += int(mlen)
	return nil
}

// DecodeBlock decodes one block (header + stored payload) into dst,
// reusing its capacity when it can hold hdr.Count entries; it returns
// the filled slice. Message fields alias stored when hdr.Codec is
// BlockRaw, or a freshly inflated slab otherwise — either way the
// backing bytes are never recycled, preserving the Entry.Message
// immutability contract.
func DecodeBlock(hdr BlockHeader, stored []byte, dst []Entry) ([]Entry, error) {
	raw, err := openFrame(hdr, stored)
	if err != nil {
		return nil, err
	}
	return decodeColumns(hdr, raw, dst)
}

// decodeColumns decodes an opened block payload; entries alias raw.
func decodeColumns(hdr BlockHeader, raw []byte, dst []Entry) ([]Entry, error) {
	if uint64(len(raw)) != uint64(hdr.RawLen) {
		return nil, errBlockTruncPay
	}
	bc, err := parseBlockColumns(hdr, raw)
	if err != nil {
		return nil, err
	}
	if uint64(cap(dst)) < uint64(hdr.Count) {
		dst = make([]Entry, hdr.Count)
	}
	dst = dst[:hdr.Count]
	for i := uint32(0); i < hdr.Count; i++ {
		if err := bc.next(i, &dst[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
