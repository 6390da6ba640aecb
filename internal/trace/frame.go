package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The block frame — 40-byte header (block.go) + CRC-32C'd payload — is
// the repo's one binary framing: LDTRC02 trace files, the LDQLOG02
// telemetry stream (internal/qlog) and the controller↔client link
// (internal/replay) all carry it, differing only in their 8-byte stream
// magic and in what the payload holds. This file is the only place a
// payload becomes a frame (Framer) and a frame becomes a payload again
// (openFrame, FrameReader).

// Framer builds frames. One Framer serves one stream; it keeps the
// DEFLATE state between frames.
type Framer struct {
	codec uint8
	level int
	zbuf  bytes.Buffer
	zw    *flate.Writer
	hdr   [blockHeaderSize]byte
}

// NewFramer returns a frame builder for codec (BlockRaw or BlockFlate).
// archival picks the DEFLATE effort: files converted once spend it on
// ratio (BestCompression); live streams, which compress on the telemetry
// hot path, take the default level.
func NewFramer(codec uint8, archival bool) *Framer {
	level := flate.DefaultCompression
	if archival {
		level = flate.BestCompression
	}
	return &Framer{codec: codec, level: level}
}

// WriteFrame frames payload — count entries whose timestamps span
// first..last — and writes header then stored payload to w, returning the
// bytes written. With BlockFlate a payload that fails to shrink is stored
// raw, so pathological input never grows the stream.
func (f *Framer) WriteFrame(w io.Writer, count int, first, last int64, payload []byte) (int, error) {
	codec, stored := f.codec, payload
	if codec == BlockFlate {
		f.zbuf.Reset()
		if f.zw == nil {
			zw, err := flate.NewWriter(&f.zbuf, f.level)
			if err != nil {
				return 0, err
			}
			f.zw = zw
		} else {
			f.zw.Reset(&f.zbuf)
		}
		if _, err := f.zw.Write(payload); err != nil {
			return 0, err
		}
		if err := f.zw.Close(); err != nil {
			return 0, err
		}
		if f.zbuf.Len() < len(payload) {
			stored = f.zbuf.Bytes()
		} else {
			codec = BlockRaw
		}
	}
	hdr := appendBlockHeader(f.hdr[:0], BlockHeader{
		Codec:     codec,
		Count:     uint32(count),
		RawLen:    uint32(len(payload)),
		StoredLen: uint32(len(stored)),
		FirstNano: first,
		LastNano:  last,
		CRC:       blockCRC(stored),
	})
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := w.Write(stored); err != nil {
		return 0, err
	}
	return blockHeaderSize + len(stored), nil
}

// openFrame checks stored against its parsed header (length, CRC) and
// returns the raw payload: stored itself for BlockRaw, a freshly inflated
// slab for BlockFlate. Either way the result is never recycled, so
// decoded entries may alias it.
func openFrame(hdr BlockHeader, stored []byte) ([]byte, error) {
	if uint64(len(stored)) != uint64(hdr.StoredLen) {
		return nil, errBlockTruncPay
	}
	if blockCRC(stored) != hdr.CRC {
		return nil, errBlockCRC
	}
	if hdr.Codec != BlockFlate {
		return stored, nil
	}
	raw := make([]byte, hdr.RawLen)
	zr := flate.NewReader(bytes.NewReader(stored))
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, fmt.Errorf("trace: inflating block: %w", err)
	}
	// A trailing read must hit EOF: extra hidden payload is malformed.
	var one [1]byte
	if n, _ := zr.Read(one[:]); n != 0 {
		return nil, errBlockBounds
	}
	return raw, nil
}

// FrameReader reads frames sequentially off a stream positioned just
// past its 8-byte magic — what a seekless consumer (a TCP link, a
// rotating qlog file) does where BlockReader would mmap and index.
type FrameReader struct {
	r       *bufio.Reader
	hdr     [blockHeaderSize]byte
	indexed bool
}

// NewFrameReader reads frames from r.
func NewFrameReader(r *bufio.Reader) *FrameReader { return &FrameReader{r: r} }

// Next returns the next frame's header and opened payload (fresh memory,
// see openFrame). The stream ends, with io.EOF, at a clean EOF on a frame
// boundary or at a footer-index magic; Indexed tells the two apart. A
// stream that stops inside a frame is io.ErrUnexpectedEOF (wrapped), a
// frame that fails its header bounds or CRC is an error: hostile bytes
// never yield a payload and never allocate past the header bounds.
func (fr *FrameReader) Next() (BlockHeader, []byte, error) {
	if fr.indexed {
		return BlockHeader{}, nil, io.EOF
	}
	head, err := fr.r.Peek(4)
	if len(head) == 0 && err == io.EOF {
		return BlockHeader{}, nil, io.EOF
	}
	if len(head) == 4 && binary.BigEndian.Uint32(head) == indexMagic {
		fr.indexed = true
		return BlockHeader{}, nil, io.EOF
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return BlockHeader{}, nil, tornFrame(err)
	}
	hdr, err := ParseBlockHeader(fr.hdr[:])
	if err != nil {
		return hdr, nil, err
	}
	stored, err := readStored(fr.r, int(hdr.StoredLen))
	if err != nil {
		return hdr, nil, tornFrame(err)
	}
	raw, err := openFrame(hdr, stored)
	return hdr, raw, err
}

// readStored reads an n-byte stored payload into fresh memory that grows
// as the bytes arrive: a 40-byte header promising maxBlockStored costs a
// hostile peer that many bytes, not this side that much memory up front.
// Blocks of the default writer geometry fit the first step.
func readStored(r io.Reader, n int) ([]byte, error) {
	const step = 2 << 20
	buf := make([]byte, 0, min(n, step))
	for len(buf) < n {
		k := min(n-len(buf), step)
		buf = slices.Grow(buf, k)[:len(buf)+k]
		if _, err := io.ReadFull(r, buf[len(buf)-k:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Indexed reports whether the stream ended at a footer index — its
// writer reached Close — rather than at a bare EOF between frames.
func (fr *FrameReader) Indexed() bool { return fr.indexed }

func tornFrame(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: block stream cut inside a frame: %w", err)
}
