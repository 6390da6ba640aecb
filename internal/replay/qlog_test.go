package replay

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ldplayer/internal/qlog"
	"ldplayer/internal/trace"
)

// TestReplayClientQlog attaches a qlog pipeline to a live replay run and
// checks the client-side capture: one FlagClientSend event per
// transmitted query, with the emulated source and the question intact.
func TestReplayClientQlog(t *testing.T) {
	const n = 50
	_, cfg := testServer(t, false)
	path := filepath.Join(t.TempDir(), "client.qlog")
	fs, err := qlog.NewFileSink(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe := qlog.New(qlog.Config{Sinks: []qlog.Sink{fs}})
	pipe.Start()
	cfg.Qlog = pipe
	cfg.FastMode = true

	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, n, 5, time.Millisecond, trace.UDP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Sent != n {
		t.Fatalf("sent = %d, want %d", st.Sent, n)
	}
	ps := pipe.Stats()
	if ps.Published != st.Sent || ps.RingDrops != 0 {
		t.Fatalf("published=%d ringDrops=%d, want %d/0", ps.Published, ps.RingDrops, st.Sent)
	}

	wantPeer := make(map[uint16]netip.Addr, n)
	for _, e := range entries {
		id := uint16(e.Message[0])<<8 | uint16(e.Message[1])
		wantPeer[id] = e.Src.Addr()
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := qlog.NewReader(f)
	var ev qlog.Event
	seen := make(map[uint16]bool, n)
	for {
		err := r.Next(&ev)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Flags&qlog.FlagClientSend == 0 {
			t.Fatalf("event %d missing FlagClientSend", ev.ID)
		}
		if seen[ev.ID] {
			t.Fatalf("event %d captured twice", ev.ID)
		}
		seen[ev.ID] = true
		if want, ok := wantPeer[ev.ID]; !ok || ev.Peer != want {
			t.Fatalf("event %d: peer %v, want %v", ev.ID, ev.Peer, want)
		}
		if ev.Transport != uint8(trace.UDP) {
			t.Fatalf("event %d: transport %d", ev.ID, ev.Transport)
		}
		if ev.QNameLen == 0 {
			t.Fatalf("event %d: no qname", ev.ID)
		}
	}
	if len(seen) != n {
		t.Fatalf("capture holds %d distinct events, want %d", len(seen), n)
	}
}

// TestReplayConsumesQlogCapture closes the feedback loop: a server-side
// qlog capture is a replayable trace, no conversion step needed.
func TestReplayConsumesQlogCapture(t *testing.T) {
	const n = 40
	capture := makeQlogCapture(t, n)
	_, cfg := testServer(t, false)
	cfg.FastMode = true
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := en.Replay(context.Background(), qlog.NewEntryReader(bytes.NewReader(capture)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != n {
		t.Errorf("sent = %d, want %d", st.Sent, n)
	}
	if st.Responses != n {
		t.Errorf("responses = %d, want %d (wildcard answers everything)", st.Responses, n)
	}
}

// makeQlogCapture encodes the queries of makeTrace as a qlog binary
// stream, the way a server-side FileSink would have recorded them.
func makeQlogCapture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := qlog.NewBlockWriter(&buf, false)
	for _, e := range makeTrace(t, n, 5, time.Millisecond, trace.UDP) {
		var ev qlog.Event
		fillSendEvent(&ev, &e, e.Time)
		if ev.QNameLen == 0 {
			t.Fatal("capture entry lost its qname")
		}
		if err := w.Write(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSendEventAllocs pins the telemetry added to the send path at zero
// allocations: Reserve, field stores, Commit — nothing else. This is the
// guard that keeps accountSend's 0-alloc contract intact with qlog on.
func TestSendEventAllocs(t *testing.T) {
	p := qlog.New(qlog.Config{RingSize: 1 << 14, Sinks: []qlog.Sink{qlog.NewDiscardSink()}})
	prod := p.Producer()
	entries := makeTrace(t, 1, 1, 0, trace.UDP)
	at := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		ev := prod.Reserve()
		if ev == nil {
			t.Fatal("ring full: sized to hold every run")
		}
		fillSendEvent(ev, &entries[0], at)
		prod.Commit()
	})
	if allocs != 0 {
		t.Errorf("send-path qlog emit allocs/op = %.2f, want 0", allocs)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
