package qlog

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
)

// blockTestEvents builds n varied events for block round-trip tests.
func blockTestEvents(t testing.TB, n int) []Event {
	t.Helper()
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{
			Time:    1700000000000000000 + int64(i)*137_000,
			Latency: int64(i%7)*1000 - 1, // mixes -1 in
			ID:      uint16(i),
			QType:   uint16(1 + i%40),
			QClass:  1,
			Rcode:   uint8(i % 16),
			Flags:   uint8(i % 32),
		}
		switch i % 3 {
		case 0:
			events[i].Peer = netip.AddrFrom4([4]byte{10, 0, byte(i / 256), byte(i)})
			events[i].View = "root"
		case 1:
			events[i].Peer = netip.MustParseAddr("2001:db8::9")
		}
		w, err := nameToWire(fmt.Sprintf("q%d.bench.example.com", i))
		if err != nil {
			t.Fatal(err)
		}
		events[i].SetQName(w)
	}
	return events
}

func eventsEqual(t *testing.T, i int, got, want Event) {
	t.Helper()
	if got.Time != want.Time || got.Latency != want.Latency || got.Peer != want.Peer ||
		got.View != want.View || got.ID != want.ID || got.QType != want.QType ||
		got.QClass != want.QClass || got.Rcode != want.Rcode ||
		got.Transport != want.Transport || got.Flags != want.Flags ||
		got.QNameLen != want.QNameLen ||
		!bytes.Equal(got.QName[:got.QNameLen], want.QName[:want.QNameLen]) {
		t.Errorf("event %d: round trip mismatch\n got %+v\nwant %+v", i, got, want)
	}
}

// TestBlockStreamRoundTrip writes LDQLOG02 across several blocks and
// reads it back through the auto-detecting Reader.
func TestBlockStreamRoundTrip(t *testing.T) {
	events := blockTestEvents(t, 2500) // > 2 full blocks + a tail
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf)
	for i := range events {
		if err := bw.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := bw.BytesWritten(); got != int64(buf.Len()) {
		t.Errorf("BytesWritten = %d, stream is %d", got, buf.Len())
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	var ev Event
	for i := range events {
		if err := r.Next(&ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		eventsEqual(t, i, ev, events[i])
	}
	if err := r.Next(&ev); err != io.EOF {
		t.Fatalf("after last event: %v, want io.EOF", err)
	}
}

// TestBlockStreamCompresses: the block stream must be materially
// smaller than the record stream on a realistic repetitive capture.
func TestBlockStreamCompresses(t *testing.T) {
	events := blockTestEvents(t, 4000)
	var rec, blk bytes.Buffer
	rw := NewWriter(&rec)
	bw := NewBlockWriter(&blk)
	for i := range events {
		if err := rw.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if blk.Len()*2 >= rec.Len() {
		t.Errorf("block stream %d B vs record stream %d B: want at least 2x smaller", blk.Len(), rec.Len())
	}
	t.Logf("record %d B, block %d B (%.1fx)", rec.Len(), blk.Len(), float64(rec.Len())/float64(blk.Len()))
}

// TestBlockStreamTornTail cuts the stream mid-block: complete blocks
// must decode, then io.ErrUnexpectedEOF — same contract as torn records.
func TestBlockStreamTornTail(t *testing.T) {
	events := blockTestEvents(t, 1500) // one full block + a tail block
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf)
	for i := range events {
		if err := bw.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-7]
	r := NewReader(bytes.NewReader(data))
	var ev Event
	n := 0
	var err error
	for {
		if err = r.Next(&ev); err != nil {
			break
		}
		n++
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("torn tail: got %v, want io.ErrUnexpectedEOF", err)
	}
	if n != blockEvents {
		t.Errorf("decoded %d events before the torn block, want %d (the complete block)", n, blockEvents)
	}
}

// TestBlockStreamCRCDamage flips a payload byte: the reader must refuse
// the block, not hand back corrupt events.
func TestBlockStreamCRCDamage(t *testing.T) {
	events := blockTestEvents(t, 100)
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf)
	for i := range events {
		if err := bw.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(qlogBlockMagic)+40+5] ^= 0xff
	r := NewReader(bytes.NewReader(data))
	var ev Event
	if err := r.Next(&ev); err != errQlogBlockCRC {
		t.Fatalf("got %v, want errQlogBlockCRC", err)
	}
}

// TestFileSinkCompressedSuffix: a ".z" path writes LDQLOG02 and the
// file reads back through the standard Reader and EntryReader.
func TestFileSinkCompressedSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capture.qlog.z")
	s, err := NewFileSink(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	events := blockTestEvents(t, 300)
	s.WriteBatch(events)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Written != int64(len(events)) || st.Dropped != 0 {
		t.Fatalf("sink stats %+v, want %d written", st, len(events))
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, qlogBlockMagic[:]) {
		t.Fatalf("file does not start with the LDQLOG02 magic: %q", data[:8])
	}
	r := NewReader(bytes.NewReader(data))
	var ev Event
	for i := range events {
		if err := r.Next(&ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		eventsEqual(t, i, ev, events[i])
	}

	// And through the trace bridge, as `ldplayer replay -in x.qlog.z`
	// consumes it.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	er := NewEntryReader(f)
	n := 0
	for {
		if _, err := er.Next(); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		n++
	}
	if n != len(events) {
		t.Fatalf("EntryReader yielded %d entries, want %d", n, len(events))
	}
}
