package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// writeBlockFile is the test-side writer: entries → in-memory LDTRC02.
func writeBlockFile(t *testing.T, entries []Entry, opts BlockWriterOptions) []byte {
	t.Helper()
	data, err := WriteBlockTrace(entries, opts)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func readBlockFile(t *testing.T, data []byte) []Entry {
	t.Helper()
	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	return drain(t, br)
}

func TestBlockRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts BlockWriterOptions
	}{
		{"raw-defaults", BlockWriterOptions{}},
		{"raw-tiny-blocks", BlockWriterOptions{BlockEntries: 7}},
		{"raw-byte-cut", BlockWriterOptions{BlockBytes: 256}},
		{"flate", BlockWriterOptions{Codec: BlockFlate}},
		{"flate-tiny-blocks", BlockWriterOptions{Codec: BlockFlate, BlockEntries: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := manyEntries(t, 257)
			data := writeBlockFile(t, want, tc.opts)
			got := readBlockFile(t, data)
			if len(got) != len(want) {
				t.Fatalf("round trip produced %d entries, want %d", len(got), len(want))
			}
			for i := range got {
				assertEntriesEqual(t, i, got[i], want[i])
			}
		})
	}
}

func TestBlockRoundTripSampleEntries(t *testing.T) {
	want := sampleEntries(t)
	got := readBlockFile(t, writeBlockFile(t, want, BlockWriterOptions{}))
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		assertEntriesEqual(t, i, got[i], want[i])
	}
}

// TestBlockRoundTripFile exercises the OpenBlockFile path — the mmap
// fast path on linux, ReaderAt elsewhere.
func TestBlockRoundTripFile(t *testing.T) {
	want := manyEntries(t, 500)
	data := writeBlockFile(t, want, BlockWriterOptions{BlockEntries: 64})
	path := filepath.Join(t.TempDir(), "trace.blk")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	br, err := OpenBlockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, br)
	for i := range got {
		assertEntriesEqual(t, i, got[i], want[i])
	}
	if err := br.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := br.Next(); err == nil {
		t.Fatal("Next after Close should fail")
	}
}

// TestBlockBatchMatchesNext: batched and per-entry reads of the same
// file must agree, with an awkward batch size that straddles block
// boundaries.
func TestBlockBatchMatchesNext(t *testing.T) {
	entries := manyEntries(t, 257)
	data := writeBlockFile(t, entries, BlockWriterOptions{BlockEntries: 50})
	want := readBlockFile(t, data)

	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	var got []Entry
	batch := make([]Entry, 33)
	for {
		n, err := br.NextBatch(batch)
		got = append(got, batch[:n]...)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("batch decode produced %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		assertEntriesEqual(t, i, got[i], want[i])
	}
}

// TestBlockScanFallback reads a file whose writer never reached Close:
// no footer index, so the reader must rebuild it by walking headers.
func TestBlockScanFallback(t *testing.T) {
	want := manyEntries(t, 100)
	var buf bytes.Buffer
	w := NewBlockWriterOptions(&buf, BlockWriterOptions{BlockEntries: 16})
	for _, e := range want {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil { // cuts the tail block, no footer
		t.Fatal(err)
	}
	got := readBlockFile(t, buf.Bytes())
	if len(got) != len(want) {
		t.Fatalf("scan fallback produced %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		assertEntriesEqual(t, i, got[i], want[i])
	}
}

// TestBlockTruncatedTail chops a Close-less file mid-payload: the scan
// must report the torn block as io.ErrUnexpectedEOF, not silently drop
// it or panic.
func TestBlockTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewBlockWriterOptions(&buf, BlockWriterOptions{BlockEntries: 16})
	for _, e := range manyEntries(t, 64) {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, blockHeaderSize / 2, blockHeaderSize + 10} {
		data := full[:len(full)-cut]
		_, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncating %d bytes: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestBlockTruncatedWithStaleIndex corrupts the footer trailer of a
// complete file and verifies the scan fallback still reads everything.
func TestBlockTruncatedWithStaleIndex(t *testing.T) {
	want := manyEntries(t, 80)
	data := writeBlockFile(t, want, BlockWriterOptions{BlockEntries: 16})
	data[len(data)-1] ^= 0xff // break the trailer magic
	got := readBlockFile(t, data)
	if len(got) != len(want) {
		t.Fatalf("scan after trailer damage produced %d entries, want %d", len(got), len(want))
	}
}

// TestBlockIndexCRCDamage flips a byte inside the footer index body;
// the reader must notice (index CRC) and fall back to scanning.
func TestBlockIndexCRCDamage(t *testing.T) {
	want := manyEntries(t, 80)
	data := writeBlockFile(t, want, BlockWriterOptions{BlockEntries: 16})
	idxOff := int64(binary.BigEndian.Uint64(data[len(data)-blockTrailerSize:]))
	data[idxOff+6] ^= 0xff // inside the index body
	got := readBlockFile(t, data)
	if len(got) != len(want) {
		t.Fatalf("scan after index damage produced %d entries, want %d", len(got), len(want))
	}
}

// TestBlockPayloadCRCDamage flips one payload byte: the decode must
// fail with the CRC error, not produce garbage entries.
func TestBlockPayloadCRCDamage(t *testing.T) {
	data := writeBlockFile(t, manyEntries(t, 40), BlockWriterOptions{BlockEntries: 16})
	// First block payload starts right after magic + header.
	data[len(blockFileMagic)+blockHeaderSize+3] ^= 0xff
	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if _, err := br.Next(); !errors.Is(err, errBlockCRC) {
		t.Fatalf("got %v, want errBlockCRC", err)
	}
}

func TestBlockEmptyTrace(t *testing.T) {
	data := writeBlockFile(t, nil, BlockWriterOptions{})
	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if _, ok := br.TraceStart(); ok {
		t.Error("empty trace should have no TraceStart")
	}
	if _, err := br.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("got %v, want io.EOF", err)
	}
}

// TestBlockZeroEntryBlock hand-builds a file holding a legal zero-entry
// block between two real ones; the reader must skip it silently.
func TestBlockZeroEntryBlock(t *testing.T) {
	entries := manyEntries(t, 8)
	blockA := writeRawBlock(t, entries[:4])
	blockZ := writeRawBlock(t, nil)
	blockB := writeRawBlock(t, entries[4:])

	var file []byte
	file = append(file, blockFileMagic[:]...)
	var index []IndexEntry
	for _, blk := range [][]byte{blockA, blockZ, blockB} {
		h, err := ParseBlockHeader(blk)
		if err != nil {
			t.Fatal(err)
		}
		index = append(index, IndexEntry{Offset: int64(len(file)), Count: h.Count, FirstNano: h.FirstNano, LastNano: h.LastNano})
		file = append(file, blk...)
	}
	file = appendIndex(file, index, int64(len(file)))

	got := readBlockFile(t, file)
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		assertEntriesEqual(t, i, got[i], entries[i])
	}
}

// writeRawBlock encodes entries as a single raw block (header+payload).
func writeRawBlock(t *testing.T, entries []Entry) []byte {
	t.Helper()
	if len(entries) == 0 {
		// Minimal legal payload: two empty dictionaries.
		payload := []byte{0, 0}
		hdr := BlockHeader{Codec: BlockRaw, RawLen: uint32(len(payload)), StoredLen: uint32(len(payload)), CRC: blockCRC(payload)}
		return append(appendBlockHeader(nil, hdr), payload...)
	}
	var buf bytes.Buffer
	w := NewBlockWriterOptions(&buf, BlockWriterOptions{BlockEntries: len(entries)})
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[len(blockFileMagic):]
}

func TestBlockPartition(t *testing.T) {
	want := manyEntries(t, 300)
	data := writeBlockFile(t, want, BlockWriterOptions{BlockEntries: 10})
	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	parts, ok := br.Partition(3)
	if !ok || len(parts) != 3 {
		t.Fatalf("Partition(3) = %d readers, ok=%v", len(parts), ok)
	}
	seen := make(map[string]int)
	total := 0
	for pi, p := range parts {
		sub := drain(t, p)
		total += len(sub)
		var prev time.Time
		for i, e := range sub {
			if i > 0 && e.Time.Before(prev) {
				t.Errorf("partition %d: entry %d out of order", pi, i)
			}
			prev = e.Time
			seen[string(e.Message)]++
		}
		if c, ok := p.(io.Closer); ok {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if total != len(want) {
		t.Fatalf("partitions yielded %d entries, want %d", total, len(want))
	}
	for _, e := range want {
		if seen[string(e.Message)] != 1 {
			t.Fatalf("entry seen %d times, want exactly once", seen[string(e.Message)])
		}
	}
}

func TestBlockPartitionRefusals(t *testing.T) {
	data := writeBlockFile(t, manyEntries(t, 40), BlockWriterOptions{BlockEntries: 10})
	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if _, ok := br.Partition(1); ok {
		t.Error("Partition(1) should refuse")
	}
	if _, err := br.Next(); err != nil {
		t.Fatal(err)
	}
	if _, ok := br.Partition(2); ok {
		t.Error("Partition after a read should refuse")
	}

	br2, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br2.Close()
	if parts, ok := br2.Partition(2); ok {
		if _, ok := parts[0].(*BlockReader).Partition(2); ok {
			t.Error("re-partitioning a partition should refuse")
		}
		if _, ok := br2.Partition(2); ok {
			t.Error("double Partition should refuse")
		}
	} else {
		t.Fatal("Partition(2) refused")
	}
}

// TestBlockPartitionMoreThanBlocks asks for more partitions than blocks;
// the count is clamped, never zero-block partitions.
func TestBlockPartitionMoreThanBlocks(t *testing.T) {
	want := manyEntries(t, 30)
	data := writeBlockFile(t, want, BlockWriterOptions{BlockEntries: 10})
	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	parts, ok := br.Partition(16)
	if !ok {
		t.Fatal("Partition(16) refused")
	}
	if len(parts) != 3 {
		t.Fatalf("got %d partitions, want 3 (clamped to block count)", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(drain(t, p))
	}
	if total != len(want) {
		t.Fatalf("partitions yielded %d entries, want %d", total, len(want))
	}
}

func TestBlockTraceStart(t *testing.T) {
	want := manyEntries(t, 20)
	data := writeBlockFile(t, want, BlockWriterOptions{BlockEntries: 4})
	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	t0, ok := br.TraceStart()
	if !ok || !t0.Equal(want[0].Time) {
		t.Fatalf("TraceStart = %v, %v; want %v, true", t0, ok, want[0].Time)
	}
	// Every partition reports the same epoch.
	parts, ok := br.Partition(2)
	if !ok {
		t.Fatal("Partition refused")
	}
	for i, p := range parts {
		pt, ok := p.(*BlockReader).TraceStart()
		if !ok || !pt.Equal(t0) {
			t.Errorf("partition %d TraceStart = %v, %v; want the file epoch", i, pt, ok)
		}
	}
}

// TestParseBlockHeaderHostile feeds headers a hostile writer could
// craft; every one must be rejected before any allocation happens.
func TestParseBlockHeaderHostile(t *testing.T) {
	base := BlockHeader{Codec: BlockRaw, Count: 10, RawLen: 100, StoredLen: 100}
	for _, tc := range []struct {
		name   string
		mutate func(*BlockHeader)
	}{
		{"codec", func(h *BlockHeader) { h.Codec = 9 }},
		{"count-overflow", func(h *BlockHeader) { h.Count = MaxBlockEntries + 1 }},
		{"rawlen-overflow", func(h *BlockHeader) { h.RawLen = maxBlockRaw + 1; h.StoredLen = h.RawLen }},
		{"storedlen-overflow", func(h *BlockHeader) { h.Codec = BlockFlate; h.StoredLen = maxBlockStored + 1 }},
		{"raw-len-mismatch", func(h *BlockHeader) { h.StoredLen = h.RawLen + 1 }},
		{"count-vs-rawlen", func(h *BlockHeader) { h.Count = 1000; h.RawLen = 100; h.StoredLen = 100 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := base
			tc.mutate(&h)
			if _, err := ParseBlockHeader(appendBlockHeader(nil, h)); err == nil {
				t.Error("hostile header accepted")
			}
		})
	}
	// The untouched base must parse, or the cases above prove nothing.
	if _, err := ParseBlockHeader(appendBlockHeader(nil, base)); err != nil {
		t.Fatalf("benign header rejected: %v", err)
	}
	// Bad magic and short buffers.
	buf := appendBlockHeader(nil, base)
	buf[0] ^= 0xff
	if _, err := ParseBlockHeader(buf); !errors.Is(err, errBlockMagic) {
		t.Errorf("got %v, want errBlockMagic", err)
	}
	if _, err := ParseBlockHeader(buf[:blockHeaderSize-1]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecodeBlockHostilePayloads runs structurally hostile payloads
// through DecodeBlock: each must error, never panic.
func TestDecodeBlockHostilePayloads(t *testing.T) {
	mk := func(payload []byte, count uint32) (BlockHeader, []byte) {
		return BlockHeader{
			Codec: BlockRaw, Count: count,
			RawLen: uint32(len(payload)), StoredLen: uint32(len(payload)),
			CRC: blockCRC(payload),
		}, payload
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		count   uint32
	}{
		{"empty-payload-with-count", make([]byte, 5*3), 3},
		{"dict-idx-out-of-range", append([]byte{1, 4, 10, 0, 0, 1, 0, 53, 1, 4, 10, 0, 0, 2, 0, 53}, 7, 0, 0, 0, 0), 1},
		{"truncated-dict", []byte{5, 4, 10}, 1},
		{"bad-family", []byte{1, 9, 1, 2, 3, 4, 0, 53}, 1},
		{"msg-len-past-blob", append([]byte{1, 4, 10, 0, 0, 1, 0, 53, 1, 4, 10, 0, 0, 2, 0, 53}, 0, 0, 0, 0, 100), 1},
		{"negative-msg-len", append([]byte{1, 4, 10, 0, 0, 1, 0, 53, 1, 4, 10, 0, 0, 2, 0, 53}, 0, 0, 0, 0, 1), 1},
		{"bad-proto", append([]byte{1, 4, 10, 0, 0, 1, 0, 53, 1, 4, 10, 0, 0, 2, 0, 53}, 0, 0, 9, 0, 0), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hdr, payload := mk(tc.payload, tc.count)
			if hdr.Count > 0 && uint64(hdr.RawLen) < uint64(hdr.Count)*minBytesPerEntry {
				// Pad so the header clears its own bounds check and the
				// column parser is what gets exercised.
				pad := make([]byte, hdr.Count*minBytesPerEntry)
				copy(pad, payload)
				hdr, payload = mk(pad, tc.count)
			}
			if _, err := DecodeBlock(hdr, payload, nil); err == nil {
				t.Error("hostile payload decoded without error")
			}
		})
	}
}

// TestDecodeBlockFlateHostile covers the compressed-path hostile cases:
// garbage DEFLATE bytes, and a stream that inflates beyond RawLen.
func TestDecodeBlockFlateHostile(t *testing.T) {
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
	hdr := BlockHeader{Codec: BlockFlate, Count: 0, RawLen: 2, StoredLen: uint32(len(garbage)), CRC: blockCRC(garbage)}
	if _, err := DecodeBlock(hdr, garbage, nil); err == nil {
		t.Error("garbage flate stream decoded without error")
	}

	// Compress a real payload, then lie about RawLen (smaller than the
	// true inflated size): the trailing-read check must catch it.
	entries := sampleEntries(t)
	data := writeBlockFile(t, entries, BlockWriterOptions{Codec: BlockFlate})
	h, err := ParseBlockHeader(data[len(blockFileMagic):])
	if err != nil {
		t.Fatal(err)
	}
	if h.Codec != BlockFlate {
		t.Skip("sample block stored raw (incompressible)")
	}
	stored := data[len(blockFileMagic)+blockHeaderSize : len(blockFileMagic)+blockHeaderSize+int(h.StoredLen)]
	h.RawLen -= 10
	h.Count = 0 // keep count×minBytes below the shrunken RawLen
	if _, err := DecodeBlock(h, stored, nil); err == nil {
		t.Error("flate stream longer than RawLen decoded without error")
	}
}

// TestBlockReaderAllocsPerEntry guards the zero-copy read path: steady-
// state ingestion must stay well under one allocation per entry (the
// budget pays only for per-block slabs and pipeline plumbing).
func TestBlockReaderAllocsPerEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 20000
	entries := manyEntries(t, n)
	data := writeBlockFile(t, entries, BlockWriterOptions{})
	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	batch := make([]Entry, 512)
	// Prime the pipeline (worker spin-up allocates once).
	if _, err := br.NextBatch(batch); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read := 0
	for {
		k, err := br.NextBatch(batch)
		read += k
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if read == 0 {
		t.Fatal("no entries read")
	}
	perEntry := float64(after.Mallocs-before.Mallocs) / float64(read)
	if perEntry > 0.1 {
		t.Errorf("block ingestion allocates %.3f objects/entry, want <= 0.1", perEntry)
	}
}

// TestBlockFlateCompresses checks the archival codec actually shrinks a
// repetitive trace versus raw blocks.
func TestBlockFlateCompresses(t *testing.T) {
	entries := manyEntries(t, 2000)
	flate := writeBlockFile(t, entries, BlockWriterOptions{Codec: BlockFlate})
	raw := writeBlockFile(t, entries, BlockWriterOptions{})
	if len(flate) >= len(raw) {
		t.Errorf("flate file (%d B) not smaller than raw (%d B)", len(flate), len(raw))
	}
	t.Logf("raw blocks %d B, flate blocks %d B (%.1fx)", len(raw), len(flate), float64(len(raw))/float64(len(flate)))
}

func TestBlockEntriesAndBlocks(t *testing.T) {
	data := writeBlockFile(t, manyEntries(t, 100), BlockWriterOptions{BlockEntries: 30})
	br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if got := br.Entries(); got != 100 {
		t.Errorf("Entries() = %d, want 100", got)
	}
	if got := len(br.Blocks()); got != 4 {
		t.Errorf("Blocks() = %d blocks, want 4", got)
	}
}
