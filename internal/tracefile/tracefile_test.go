package tracefile

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
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/qlog"
	"ldplayer/internal/trace"
)

// fixtureEntries and fixtureEvents generated testdata/ at the parent
// commit (see testdata/README); they are pinned, not to be edited.
func fixtureEntries(n int) []trace.Entry {
	base := time.Unix(1461234567, 0)
	out := make([]trace.Entry, n)
	for i := range out {
		m := dnswire.NewQuery(uint16(i+1), fmt.Sprintf("q%d.example.com.", i), dnswire.TypeA)
		if i%2 == 0 {
			m.Edns = &dnswire.EDNS{UDPSize: 4096, DO: i%4 == 0}
		}
		wire, err := m.Pack(nil)
		if err != nil {
			panic(err)
		}
		src := netip.AddrFrom4([4]byte{10, 0, byte(i / 256), byte(i)})
		dst := netip.MustParseAddrPort("198.41.0.4:53")
		if i%5 == 0 {
			src = netip.MustParseAddr("2001:db8::1")
			dst = netip.MustParseAddrPort("[2001:db8::53]:53")
		}
		out[i] = trace.Entry{
			Time:     base.Add(time.Duration(i) * 1500 * time.Microsecond),
			Src:      netip.AddrPortFrom(src, uint16(5000+i)),
			Dst:      dst,
			Protocol: trace.Protocol(i % 3),
			Message:  wire,
		}
	}
	return out
}

func fixtureEvents(n int) []qlog.Event {
	out := make([]qlog.Event, n)
	for i := range out {
		ev := &out[i]
		ev.Time = 1700000000000000000 + int64(i)*137_000
		ev.Latency = int64(i%7)*1000 - 1
		ev.ID = uint16(i + 1)
		ev.QType = uint16(dnswire.TypeA)
		ev.QClass = uint16(dnswire.ClassINET)
		ev.Rcode = uint8(i % 4)
		ev.Transport = uint8(i % 3)
		ev.Flags = uint8(i % 8)
		if i%3 != 2 {
			ev.Peer = netip.AddrFrom4([4]byte{10, 1, 0, byte(i)})
			ev.View = "default"
		} else {
			ev.Peer = netip.MustParseAddr("2001:db8::9")
		}
		wire, err := dnswire.NewQuery(ev.ID, fmt.Sprintf("q%d.example.com.", i), dnswire.TypeA).Pack(nil)
		if err != nil {
			panic(err)
		}
		ev.SetQName(wire[12 : 12+qlog.WireQNameLen(wire)])
	}
	return out
}

// readAll opens path and returns deep copies of its entries (block
// entries alias a mapping that dies with Close).
func readAll(t *testing.T, path string) []trace.Entry {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	entries, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		entries[i] = entries[i].Clone()
	}
	return entries
}

func sameEntries(t *testing.T, got, want []trace.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if !a.Time.Equal(b.Time) || a.Src != b.Src || a.Dst != b.Dst ||
			a.Protocol != b.Protocol || !bytes.Equal(a.Message, b.Message) {
			t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, a, b)
		}
	}
}

// TestParentBlockFilesDecode: block files the parent commit wrote decode
// entry for entry, both codecs.
func TestParentBlockFilesDecode(t *testing.T) {
	want := fixtureEntries(40)
	for _, name := range []string{"parent.blk", "parent-flate.blk"} {
		t.Run(name, func(t *testing.T) {
			sameEntries(t, readAll(t, filepath.Join("testdata", name)), want)
		})
	}
}

// TestParentBlockFileBytesUnchanged: the refactored writer produces the
// parent's block files byte for byte.
func TestParentBlockFileBytesUnchanged(t *testing.T) {
	for name, codec := range map[string]uint8{"parent.blk": trace.BlockRaw, "parent-flate.blk": trace.BlockFlate} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.WriteBlockTrace(fixtureEntries(40), trace.BlockWriterOptions{Codec: codec, BlockEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: writer output differs from the parent commit's file", name)
		}
	}
}

// TestParentQlogDecodes: a ".qlog.z" capture the parent commit's FileSink
// wrote decodes event for event, and reads as the same trace the parent's
// traceconv made of it.
func TestParentQlogDecodes(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "parent.qlog.z"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := qlog.NewReader(f)
	for i, want := range fixtureEvents(30) {
		var ev qlog.Event
		if err := r.Next(&ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev != want {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, ev, want)
		}
	}
	var ev qlog.Event
	if err := r.Next(&ev); err != io.EOF {
		t.Fatalf("after the last event: %v, want io.EOF", err)
	}
	want := readAll(t, filepath.Join("testdata", "parent-qlog.blk"))
	sameEntries(t, readAll(t, filepath.Join("testdata", "parent.qlog.z")), want)

	// The same events through today's plain ".qlog" sink (raw blocks, where
	// the parent wrote a record stream) read as the same trace.
	path := filepath.Join(t.TempDir(), "now.qlog")
	s, err := qlog.NewFileSink(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.WriteBatch(fixtureEvents(30))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sameEntries(t, readAll(t, path), want)
}

// TestCreateOpenRoundTrip writes and re-reads every writable format.
func TestCreateOpenRoundTrip(t *testing.T) {
	want := fixtureEntries(40)
	for _, tc := range []struct {
		name     string
		compress bool
	}{{"a.blk", false}, {"z.blk", true}, {"a.txt", false}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.name)
			w, err := Create(path, tc.compress)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range want {
				if err := w.Write(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got := readAll(t, path)
			if strings.HasSuffix(path, ".txt") {
				// Text keeps the query's meaning, not its bytes: compare
				// what survives (addressing, timing, ID).
				if len(got) != len(want) {
					t.Fatalf("%d entries, want %d", len(got), len(want))
				}
				for i := range got {
					if !got[i].Time.Equal(want[i].Time) || got[i].Src != want[i].Src ||
						!bytes.Equal(got[i].Message[:2], want[i].Message[:2]) {
						t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
					}
				}
				return
			}
			sameEntries(t, got, want)
		})
	}
}

// TestUnknownExtensionIsAnError: a name the tools used to parse silently
// as the old record stream is now rejected, naming what is accepted.
func TestUnknownExtensionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, []byte("whatever"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), ".blk") {
		t.Errorf("Open(%q) = %v, want an error listing the readable extensions", path, err)
	}
	if _, err := Create(path, false); err == nil || !strings.Contains(err.Error(), ".blk") {
		t.Errorf("Create(%q) = %v, want an error listing the writable extensions", path, err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.blk")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open(missing) = %v, want os.ErrNotExist", err)
	}
}
