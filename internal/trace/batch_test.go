package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"ldplayer/internal/dnswire"
)

// manyEntries builds n distinct entries for batch-decode tests.
func manyEntries(t *testing.T, n int) []Entry {
	t.Helper()
	base := time.Unix(1461234567, 0)
	out := make([]Entry, n)
	for i := range out {
		out[i] = queryEntry(t, base.Add(time.Duration(i)*time.Millisecond),
			fmt.Sprintf("10.0.%d.%d:5353", i/256, i%256), "198.41.0.4:53",
			Protocol(i%3), fmt.Sprintf("q%d.example.com.", i), dnswire.TypeA, nil)
	}
	return out
}

// TestReadBatchFallback exercises the per-entry fallback for readers
// without a batch path and the batch path of SliceReader.
func TestReadBatchFallback(t *testing.T) {
	entries := manyEntries(t, 10)

	// SliceReader implements BatchReader directly.
	sr := NewSliceReader(entries)
	dst := make([]Entry, 4)
	var total int
	for {
		n, err := ReadBatch(sr, dst)
		total += n
		if err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
	}
	if total != 10 {
		t.Errorf("SliceReader batches yielded %d entries, want 10", total)
	}

	// A plain Reader goes through the Next fallback.
	plain := struct{ Reader }{NewSliceReader(entries)}
	total = 0
	for {
		n, err := ReadBatch(plain, dst)
		total += n
		if err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
	}
	if total != 10 {
		t.Errorf("fallback batches yielded %d entries, want 10", total)
	}
}

// streamBatches drains sr through NextBatch with the given batch size,
// returning what it decoded and the error that ended the stream.
func streamBatches(sr *StreamReader, size int) ([]Entry, error) {
	var got []Entry
	batch := make([]Entry, size)
	for {
		n, err := sr.NextBatch(batch)
		got = append(got, batch[:n]...)
		if err != nil {
			return got, err
		}
	}
}

// TestStreamReaderMatchesBlockReader reads one file sequentially — one
// byte per Read, so every io.ReadFull boundary in the frame reader is
// exercised, with a batch size that straddles blocks — and through the
// indexed reader, and requires identical output.
func TestStreamReaderMatchesBlockReader(t *testing.T) {
	for _, codec := range []uint8{BlockRaw, BlockFlate} {
		entries := manyEntries(t, 257)
		data := writeBlockFile(t, entries, BlockWriterOptions{BlockEntries: 50, Codec: codec})
		want := readBlockFile(t, data)
		sr := NewStreamReader(bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data))))
		got, err := streamBatches(sr, 33)
		if err != io.EOF {
			t.Fatal(err)
		}
		if !sr.Indexed() {
			t.Error("a Closed writer's stream must end at its index")
		}
		if len(got) != len(want) {
			t.Fatalf("codec %d: stream decode produced %d entries, want %d", codec, len(got), len(want))
		}
		for i := range got {
			assertEntriesEqual(t, i, got[i], want[i])
		}
	}
}

// TestStreamReaderTornTail cuts a three-block stream at several hostile
// points: every complete block is delivered, then a cut inside a frame is
// io.ErrUnexpectedEOF (corruption, not end of stream) while a cut between
// frames is a clean EOF that Indexed reports as index-less.
func TestStreamReaderTornTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewBlockWriterOptions(&buf, BlockWriterOptions{BlockEntries: 8})
	var lastStart int
	for i, e := range manyEntries(t, 24) {
		if i == 16 {
			lastStart = buf.Len() // two blocks cut so far
		}
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	for _, c := range []struct {
		name     string
		cut      int
		complete int
		wantEOF  bool
	}{
		{"mid-payload", lastStart + blockHeaderSize + 20, 16, false},
		{"mid-header", lastStart + 2, 16, false},
		{"between-blocks", lastStart, 16, true},
		{"inside-magic", 5, 0, false},
		{"empty", 0, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sr := NewStreamReader(bufio.NewReader(bytes.NewReader(stream[:c.cut])))
			got, err := streamBatches(sr, 7)
			if len(got) != c.complete {
				t.Errorf("decoded %d entries, want %d", len(got), c.complete)
			}
			if sr.Indexed() {
				t.Error("a torn stream reported an index")
			}
			if c.wantEOF {
				if err != io.EOF {
					t.Errorf("err = %v, want io.EOF", err)
				}
			} else if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
			}
		})
	}
}

// TestStreamReaderRejectsDamage: a foreign magic and a flipped payload
// byte are errors, never entries.
func TestStreamReaderRejectsDamage(t *testing.T) {
	if _, err := NewStreamReader(bufio.NewReader(strings.NewReader("NOTMAGIC...."))).Next(); err == nil || err == io.EOF {
		t.Errorf("bad magic: err = %v", err)
	}
	data := writeBlockFile(t, manyEntries(t, 40), BlockWriterOptions{BlockEntries: 16})
	data[len(blockFileMagic)+blockHeaderSize+3] ^= 0xff
	got, err := streamBatches(NewStreamReader(bufio.NewReader(bytes.NewReader(data))), 64)
	if len(got) != 0 || !errors.Is(err, errBlockCRC) {
		t.Errorf("damaged first block: %d entries, err = %v; want 0, errBlockCRC", len(got), err)
	}
}

// TestStreamReaderShortAndOversizedBatches: a zero-length dst yields
// nothing and loses nothing, a batch larger than a block returns the
// block, and EOF is surfaced alone on the call after the last entry.
func TestStreamReaderShortAndOversizedBatches(t *testing.T) {
	entries := manyEntries(t, 5)
	sr := NewStreamReader(bufio.NewReader(bytes.NewReader(writeBlockFile(t, entries, BlockWriterOptions{}))))
	if n, err := sr.NextBatch(nil); n != 0 || err != nil {
		t.Fatalf("NextBatch(nil) = %d, %v", n, err)
	}
	batch := make([]Entry, 64)
	n, err := sr.NextBatch(batch)
	if n != 5 || err != nil {
		t.Fatalf("oversized batch = %d, %v; want 5, nil", n, err)
	}
	for i := 0; i < 5; i++ {
		assertEntriesEqual(t, i, batch[i], entries[i])
	}
	if n, err := sr.NextBatch(batch); n != 0 || err != io.EOF {
		t.Fatalf("after EOF: %d, %v", n, err)
	}
}

// TestStreamReaderAllocs guards what the link gets from block framing:
// allocations are per block (slab, dictionaries), not per entry.
func TestStreamReaderAllocs(t *testing.T) {
	entries := manyEntries(t, 2000)
	data := writeBlockFile(t, entries, BlockWriterOptions{BlockEntries: 500})
	batch := make([]Entry, 256)
	allocs := testing.AllocsPerRun(5, func() {
		sr := NewStreamReader(bufio.NewReader(bytes.NewReader(data)))
		for {
			if _, err := sr.NextBatch(batch); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if perEntry := allocs / float64(len(entries)); perEntry > 0.02 {
		t.Errorf("stream decode allocates %.3f/entry (%.0f total), want <= 0.02", perEntry, allocs)
	}
}

func assertEntriesEqual(t *testing.T, i int, got, want Entry) {
	t.Helper()
	if !got.Time.Equal(want.Time) || got.Src != want.Src || got.Dst != want.Dst ||
		got.Protocol != want.Protocol || !bytes.Equal(got.Message, want.Message) {
		t.Errorf("entry %d mismatch:\n got %+v\nwant %+v", i, got, want)
	}
}
