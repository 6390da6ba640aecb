package main

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/trace"
)

func testEntries(t *testing.T, n int) []trace.Entry {
	t.Helper()
	base := time.Unix(1461234567, 0)
	out := make([]trace.Entry, n)
	for i := range out {
		m := dnswire.NewQuery(uint16(i+1), fmt.Sprintf("q%d.example.com.", i), dnswire.TypeA)
		wire, err := m.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = trace.Entry{
			Time:     base.Add(time.Duration(i) * time.Millisecond),
			Src:      netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i / 256), byte(i)}), 5353),
			Dst:      netip.MustParseAddrPort("198.41.0.4:53"),
			Protocol: trace.Protocol(i % 3),
			Message:  wire,
		}
	}
	return out
}

func writeBlocks(t *testing.T, path string, entries []trace.Entry) {
	t.Helper()
	data, err := trace.WriteBlockTrace(entries, trace.BlockWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readBlocks(t *testing.T, path string) []trace.Entry {
	t.Helper()
	br, err := trace.OpenBlockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	entries, err := trace.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	// Deep-copy: block entries alias the reader's mmap/slabs, which die
	// with the deferred Close.
	for i := range entries {
		entries[i] = entries[i].Clone()
	}
	return entries
}

func sameFile(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Errorf("%s and %s differ", a, b)
	}
}

// TestConvertBlockRoundTrip drives the CLI's run() through blocks ->
// blocks (raw, then compressed) -> raw blocks and requires byte-identical
// entries in the middle and a byte-identical file at the end.
func TestConvertBlockRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			in := filepath.Join(dir, "in.blk")
			mid := filepath.Join(dir, "mid.blk")
			out := filepath.Join(dir, "out.blk")
			want := testEntries(t, 300)
			writeBlocks(t, in, want)

			if err := run(in, mid, false, compress); err != nil {
				t.Fatal(err)
			}
			if err := run(mid, out, false, false); err != nil {
				t.Fatal(err)
			}
			got := readBlocks(t, mid)
			if len(got) != len(want) {
				t.Fatalf("round trip produced %d entries, want %d", len(got), len(want))
			}
			for i := range got {
				a, b := got[i], want[i]
				if !a.Time.Equal(b.Time) || a.Src != b.Src || a.Dst != b.Dst ||
					a.Protocol != b.Protocol || string(a.Message) != string(b.Message) {
					t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, a, b)
				}
			}
			sameFile(t, in, out)
		})
	}
}

// TestConvertTextBlock: text -> blocks -> text is byte-identical.
func TestConvertTextBlock(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.blk")
	txt := filepath.Join(dir, "a.txt")
	blk := filepath.Join(dir, "b.blk")
	txt2 := filepath.Join(dir, "c.txt")
	writeBlocks(t, in, testEntries(t, 50))

	for _, step := range [][2]string{{in, txt}, {txt, blk}, {blk, txt2}} {
		if err := run(step[0], step[1], false, false); err != nil {
			t.Fatalf("%s -> %s: %v", step[0], step[1], err)
		}
	}
	sameFile(t, txt, txt2)
}

// TestConvertMatchesParentCommit: conversions of files the parent commit
// wrote (internal/tracefile/testdata) come out byte-identical to what the
// parent's traceconv made of them — a ".qlog.z" capture into blocks, and
// a block file into text.
func TestConvertMatchesParentCommit(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "tracefile", "testdata")
	dir := t.TempDir()
	for _, c := range [][3]string{
		{"parent.qlog.z", "from-qlog.blk", "parent-qlog.blk"},
		{"parent.blk", "from-blk.txt", "parent.txt"},
		{"parent-flate.blk", "from-flate.txt", "parent.txt"},
	} {
		out := filepath.Join(dir, c[1])
		if err := run(filepath.Join(fixtures, c[0]), out, false, false); err != nil {
			t.Fatalf("%s: %v", c[0], err)
		}
		sameFile(t, out, filepath.Join(fixtures, c[2]))
	}
}

// TestConvertRejectsUnknownExtensions: ".bin" used to mean the old record
// stream on either side; now it is an error that says what is accepted.
func TestConvertRejectsUnknownExtensions(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.blk")
	writeBlocks(t, in, testEntries(t, 3))
	if err := run(in, filepath.Join(dir, "out.bin"), false, false); err == nil || !strings.Contains(err.Error(), ".pcap") {
		t.Errorf("unknown output extension: %v", err)
	}
	if err := os.Rename(in, filepath.Join(dir, "in.bin")); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.txt"), false, false); err == nil || !strings.Contains(err.Error(), ".blk") {
		t.Errorf("unknown input extension: %v", err)
	}
}

// TestConvertQueriesOnly: -queries-only drops responses (QR set) and
// nothing else, on the streaming and the buffered (pcap) output paths.
func TestConvertQueriesOnly(t *testing.T) {
	dir := t.TempDir()
	entries := testEntries(t, 6)
	for _, i := range []int{1, 4} {
		entries[i].Message[2] |= 0x80
	}
	in := filepath.Join(dir, "in.blk")
	writeBlocks(t, in, entries)
	for _, ext := range []string{"blk", "pcap"} {
		out := filepath.Join(dir, "q."+ext)
		if err := run(in, out, true, false); err != nil {
			t.Fatal(err)
		}
		back := filepath.Join(dir, ext+"-back.blk")
		if err := run(out, back, false, false); err != nil {
			t.Fatal(err)
		}
		if got := readBlocks(t, back); len(got) != 4 {
			t.Errorf(".%s: kept %d entries, want the 4 queries", ext, len(got))
		}
	}
}
