package qlog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
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
// reads it back.
func TestBlockStreamRoundTrip(t *testing.T) {
	events := blockTestEvents(t, 2500) // > 2 full blocks + a tail
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf, true)
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

// TestBlockStreamEdgeEvents round-trips the field extremes through raw
// blocks (what the TCP sink and a ".qlog" file carry): v6 and absent
// peers, an empty view, no qname, the largest ID, an untimed latency.
func TestBlockStreamEdgeEvents(t *testing.T) {
	events := []Event{
		{Time: 1234567890123456789, Latency: 42000, Peer: netip.MustParseAddr("198.18.0.7"),
			View: "root", ID: 7, QType: 1, QClass: 1, Rcode: 0, Transport: 0, Flags: FlagCacheHit},
		{Time: 2, Latency: -1, Peer: netip.MustParseAddr("2001:db8::9"),
			View: "", ID: 65535, QType: 28, QClass: 1, Rcode: 3, Transport: 2, Flags: FlagDropped | FlagSlow},
		{Time: 3, Latency: -1}, // no peer, no view, no qname
	}
	w, _ := nameToWire("www.example.com")
	events[0].SetQName(w)
	w2, _ := nameToWire("x.org")
	events[1].SetQName(w2)

	var buf bytes.Buffer
	bw := NewBlockWriter(&buf, false)
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

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOTQLOG0xxxx")))
	var ev Event
	if err := r.Next(&ev); err == nil || err == io.EOF {
		t.Fatalf("bad magic: %v, want parse error", err)
	}
}

// TestBlockStreamCompresses: the ".z" codec must be materially smaller
// than raw blocks on a realistic repetitive capture.
func TestBlockStreamCompresses(t *testing.T) {
	events := blockTestEvents(t, 4000)
	var raw, z bytes.Buffer
	rw := NewBlockWriter(&raw, false)
	zw := NewBlockWriter(&z, true)
	for i := range events {
		if err := rw.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
		if err := zw.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Flush(); err != nil {
		t.Fatal(err)
	}
	if z.Len()*2 >= raw.Len() {
		t.Errorf("DEFLATE blocks %d B vs raw blocks %d B: want at least 2x smaller", z.Len(), raw.Len())
	}
	t.Logf("raw %d B, DEFLATE %d B (%.1fx)", raw.Len(), z.Len(), float64(raw.Len())/float64(z.Len()))
}

// TestBlockStreamTornTail cuts the stream mid-block: complete blocks
// must decode, then io.ErrUnexpectedEOF, never a clean EOF.
func TestBlockStreamTornTail(t *testing.T) {
	events := blockTestEvents(t, 1500) // one full block + a tail block
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf, true)
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
	if !errors.Is(err, io.ErrUnexpectedEOF) {
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
	bw := NewBlockWriter(&buf, true)
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
	if err := r.Next(&ev); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("got %v, want the frame's CRC mismatch", err)
	}
}

// TestFileSinkCompressedSuffix: a ".z" path writes DEFLATE blocks and the
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

// FuzzQlogBlockDecode feeds arbitrary payload bytes to the event cursor
// — what is left of a hostile LDQLOG02 block once trace.FrameReader has
// checked its frame (FuzzBlockStream in internal/trace). The cursor must
// error or decode, never panic, and whatever it decodes must survive a
// re-encode unchanged.
func FuzzQlogBlockDecode(f *testing.F) {
	var seed bytes.Buffer
	bw := NewBlockWriter(&seed, false)
	events := blockTestEvents(f, 20)
	for i := range events {
		if err := bw.Write(&events[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Fatal(err)
	}
	payload := seed.Bytes()[len(qlogBlockMagic)+40:]
	f.Add(payload, uint16(20))
	f.Add(payload[:len(payload)/2], uint16(20))
	f.Add([]byte{0, 0, 9}, uint16(1))
	f.Fuzz(func(t *testing.T, payload []byte, count uint16) {
		c := blockCursor{buf: payload, remain: uint32(count)}
		var decoded []Event
		for c.remain > 0 {
			var ev Event
			if err := c.next(&ev); err != nil {
				return
			}
			decoded = append(decoded, ev)
		}
		var buf bytes.Buffer
		w := NewBlockWriter(&buf, false)
		for i := range decoded {
			if err := w.Write(&decoded[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		for i := range decoded {
			var ev Event
			if err := r.Next(&ev); err != nil {
				t.Fatalf("re-reading event %d: %v", i, err)
			}
			if ev != decoded[i] {
				t.Fatalf("event %d changed across a re-encode:\n got %+v\nwant %+v", i, ev, decoded[i])
			}
		}
	})
}
