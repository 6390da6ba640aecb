package qlog_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/obs"
	"ldplayer/internal/pcap"
	"ldplayer/internal/qlog"
	"ldplayer/internal/trace"
	"ldplayer/internal/zone"
)

const zoneText = `
example.com.	3600	IN	SOA	ns1.example.com. host. 1 7200 3600 1209600 300
example.com.	3600	IN	NS	ns1.example.com.
ns1.example.com.	3600	IN	A	192.0.2.1
*.example.com.	300	IN	A	192.0.2.81
`

func testEngine(t *testing.T) *authserver.Engine {
	t.Helper()
	z, err := zone.Parse(strings.NewReader(zoneText), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	e := authserver.NewEngine()
	if err := e.AddView(&authserver.View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestQlogSmoke runs the full production shape end to end: a live
// batched UDP server with a qlog pipeline attached streams one event per
// query into a binary file, the obs registry federates the pipeline's
// self-metrics, and the capture's per-event fields match the traffic.
func TestQlogSmoke(t *testing.T) {
	const (
		uniques = 20
		repeats = 5 // per unique name; repeats hit the shard cache
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "capture.qlog")

	fs, err := qlog.NewFileSink(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe := qlog.New(qlog.Config{Sinks: []qlog.Sink{fs}})
	pipe.Start()

	e := testEngine(t)
	e.SetQlog(pipe) // before Start: shards bind producers at creation
	reg := obs.NewRegistry()
	pipe.Instrument(reg)

	srv := &authserver.Server{Engine: e, UDPWorkers: 2, ReusePort: true}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("udp", srv.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	sent := 0
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < uniques; i++ {
			name := fmt.Sprintf("q%d.example.com.", i)
			w, err := dnswire.NewQuery(uint16(sent+1), name, dnswire.TypeA).Pack(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(w); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn.Read(buf); err != nil {
				t.Fatalf("query %d: %v", sent, err)
			}
			sent++
		}
	}
	conn.Close()

	// Server first (all emits finished), then the pipeline's final drain.
	srv.Close()
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	st := pipe.Stats()
	if st.Published != int64(sent) || st.RingDrops != 0 {
		t.Fatalf("published=%d ringDrops=%d, want %d/0", st.Published, st.RingDrops, sent)
	}
	if es := e.Stats(); es.Queries != st.Published+st.RingDrops {
		t.Errorf("engine queries %d != events %d + drops %d", es.Queries, st.Published, st.RingDrops)
	}
	if s, ok := reg.Find("qlog_events_total", ""); !ok || s.Value != int64(sent) {
		t.Errorf("qlog_events_total = %+v, want %d", s, sent)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := qlog.NewReader(f)
	var ev qlog.Event
	clientAddr := netip.MustParseAddrPort(conn.LocalAddr().String()).Addr()
	got, hits, misses := 0, 0, 0
	for {
		err := r.Next(&ev)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
		if ev.View != "default" {
			t.Fatalf("event view %q, want default", ev.View)
		}
		if ev.Transport != uint8(authserver.UDP) {
			t.Fatalf("event transport %d, want UDP", ev.Transport)
		}
		if ev.Peer != clientAddr {
			t.Fatalf("event peer %v, want %v", ev.Peer, clientAddr)
		}
		if ev.QType != uint16(dnswire.TypeA) || ev.Rcode != uint8(dnswire.RcodeNoError) {
			t.Fatalf("event qtype=%d rcode=%d", ev.QType, ev.Rcode)
		}
		if !strings.HasSuffix(ev.QNameString(), ".example.com.") {
			t.Fatalf("event qname %q", ev.QNameString())
		}
		if ev.Flags&qlog.FlagCacheHit != 0 {
			hits++
		} else {
			misses++
		}
		if ev.Time == 0 {
			t.Fatal("event has no timestamp")
		}
	}
	if got != sent {
		t.Fatalf("capture holds %d events, want %d", got, sent)
	}
	// Every repeat after the first for a name served by the same shard is
	// a cache hit; one client socket pins one shard, so exactly the first
	// pass misses.
	if misses != uniques || hits != sent-uniques {
		t.Errorf("cache flags: %d misses, %d hits; want %d/%d", misses, hits, uniques, sent-uniques)
	}
}

// captureEvents builds a synthetic capture the way the server would have
// produced it and returns the qlog binary stream.
func captureEvents(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := qlog.NewBlockWriter(&buf, false)
	base := time.Now().Truncate(time.Second)
	for i := 0; i < n; i++ {
		var ev qlog.Event
		ev.Time = base.Add(time.Duration(i) * 2 * time.Millisecond).UnixNano()
		ev.Latency = -1
		ev.Peer = netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i%5)})
		ev.View = "default"
		ev.ID = uint16(i + 1)
		ev.QType = uint16(dnswire.TypeA)
		ev.QClass = uint16(dnswire.ClassINET)
		name := fmt.Sprintf("q%d.example.com.", i)
		wire, err := dnswire.NewQuery(ev.ID, name, dnswire.TypeA).Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		qlen := qlog.WireQNameLen(wire)
		if qlen == 0 {
			t.Fatal("synthetic query has no parsable qname")
		}
		ev.SetQName(wire[12 : 12+qlen])
		if err := w.Write(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readAll(t *testing.T, r trace.Reader) []trace.Entry {
	t.Helper()
	var out []trace.Entry
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

func question(t *testing.T, e trace.Entry) (uint16, string) {
	t.Helper()
	var m dnswire.Message
	if err := m.Unpack(e.Message); err != nil {
		t.Fatal(err)
	}
	if len(m.Question) != 1 {
		t.Fatalf("entry has %d questions", len(m.Question))
	}
	return m.Header.ID, m.Question[0].Name
}

// TestQlogTraceRoundTrip closes the loop of the package doc: a qlog
// capture converts into the text and pcap trace formats with fields
// preserved, and feeds straight back into the replay engine.
func TestQlogTraceRoundTrip(t *testing.T) {
	const n = 30
	capture := captureEvents(t, n)

	// qlog → trace entries.
	entries := readAll(t, qlog.NewEntryReader(bytes.NewReader(capture)))
	if len(entries) != n {
		t.Fatalf("entry reader yielded %d entries, want %d", len(entries), n)
	}
	for i, e := range entries {
		id, name := question(t, e)
		if int(id) != i+1 {
			t.Fatalf("entry %d: ID %d", i, id)
		}
		if want := fmt.Sprintf("q%d.example.com.", i); name != want {
			t.Fatalf("entry %d: qname %q, want %q", i, name, want)
		}
		if e.Protocol != trace.UDP {
			t.Fatalf("entry %d: protocol %v", i, e.Protocol)
		}
		if want := netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i%5)}); e.Src.Addr() != want {
			t.Fatalf("entry %d: src %v, want %v", i, e.Src.Addr(), want)
		}
	}

	// → text and back.
	var txt bytes.Buffer
	tw := trace.NewTextWriter(&txt)
	for _, e := range entries {
		if err := tw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	fromText := readAll(t, trace.NewTextReader(bytes.NewReader(txt.Bytes())))
	if len(fromText) != n {
		t.Fatalf("text round trip yielded %d entries", len(fromText))
	}
	for i := range fromText {
		id, name := question(t, fromText[i])
		wid, wname := question(t, entries[i])
		if id != wid || name != wname {
			t.Fatalf("text entry %d: %d/%q, want %d/%q", i, id, name, wid, wname)
		}
	}

	// → pcap and back (IPv4 sources, dst port 53: extractable).
	var pc bytes.Buffer
	if err := pcap.WriteDNSPcap(&pc, entries); err != nil {
		t.Fatal(err)
	}
	pr, err := pcap.NewTraceReader(bytes.NewReader(pc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromPcap := readAll(t, pr)
	if len(fromPcap) != n {
		t.Fatalf("pcap round trip yielded %d entries", len(fromPcap))
	}
	for i := range fromPcap {
		id, name := question(t, fromPcap[i])
		wid, wname := question(t, entries[i])
		if id != wid || name != wname {
			t.Fatalf("pcap entry %d: %d/%q, want %d/%q", i, id, name, wid, wname)
		}
		// pcap stores microsecond timestamps.
		if got, want := fromPcap[i].Time.Truncate(time.Microsecond), entries[i].Time.Truncate(time.Microsecond); !got.Equal(want) {
			t.Fatalf("pcap entry %d: time %v, want %v", i, got, want)
		}
	}
}
