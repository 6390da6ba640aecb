package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"testing"
	"time"
)

// fuzzTraceSeeds returns encoded block traces for both fuzzers: benign
// raw and flate files plus pre-damaged variants, so coverage starts past
// the magic check.
func fuzzTraceSeeds(t testing.TB) [][]byte {
	t.Helper()
	entries := make([]Entry, 40)
	base := time.Unix(1500000000, 0)
	for i := range entries {
		entries[i] = Entry{
			Time:     base.Add(time.Duration(i) * time.Millisecond),
			Src:      netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i % 5)}), uint16(1000+i)),
			Dst:      netip.MustParseAddrPort("[2001:db8::53]:53"),
			Protocol: Protocol(i % 3),
			Message:  bytes.Repeat([]byte{byte(i), 0xAB}, 6+i%9),
		}
	}
	var seeds [][]byte
	for _, opts := range []BlockWriterOptions{
		{BlockEntries: 16},
		{Codec: BlockFlate, BlockEntries: 8},
	} {
		data, err := WriteBlockTrace(entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
		// Torn tail and a flipped payload byte.
		seeds = append(seeds, data[:len(data)*2/3])
		bad := bytes.Clone(data)
		bad[len(bad)/2] ^= 0xff
		seeds = append(seeds, bad)
	}
	return seeds
}

// FuzzBlockDecode feeds arbitrary bytes to the whole LDTRC02 read path
// — open, index load (footer or scan fallback), parallel block decode.
// Hostile input must error, never panic, and per-block bounds mean it
// cannot make the decoder allocate unboundedly either.
func FuzzBlockDecode(f *testing.F) {
	for _, s := range fuzzTraceSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := NewBlockReaderAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		defer br.Close()
		for i := 0; i < 1<<20; i++ {
			if _, err := br.Next(); err != nil {
				break
			}
		}
	})
}

// FuzzBlockStream feeds arbitrary bytes to the sequential frame reader
// — what an untrusted controller can send down the link, or a qlog peer
// down a collector socket (internal/qlog reads the same frames). Hostile
// input must end in an error or a clean EOF, never a panic, and a frame is
// only ever allocated for after its header has passed ParseBlockHeader's
// bounds.
func FuzzBlockStream(f *testing.F) {
	for _, s := range fuzzTraceSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr := NewStreamReader(bufio.NewReader(bytes.NewReader(data)))
		for i := 0; i < 1<<20; i++ {
			e, err := sr.Next()
			if err != nil {
				if sr.Indexed() && err != io.EOF {
					t.Fatalf("error %v after the index marker", err)
				}
				return
			}
			if e.Protocol > TLS {
				t.Fatalf("entry %d: protocol %d escaped validation", i, e.Protocol)
			}
		}
	})
}

// FuzzBlockHeader exercises the header parser and the stored-payload
// decoder directly: whatever the header claims, DecodeBlock must either
// reproduce entries or reject the payload.
func FuzzBlockHeader(f *testing.F) {
	for _, s := range fuzzTraceSeeds(f) {
		if len(s) > 8 {
			f.Add(s[8:])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, err := ParseBlockHeader(data)
		if err != nil {
			return
		}
		stored := data[BlockHeaderSize:]
		if uint64(len(stored)) > uint64(hdr.StoredLen) {
			stored = stored[:hdr.StoredLen]
		}
		_, _ = DecodeBlock(hdr, stored, nil)
	})
}

// FuzzBlockRoundTrip derives a trace from the fuzzed bytes, encodes it
// with fuzz-chosen block geometry, and requires the decode to be exact.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte("\x01\x02\x03seed entropy for the round trip"), uint8(4), false)
	f.Add(bytes.Repeat([]byte{0xEE, 0x07}, 300), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, blockEntries uint8, compress bool) {
		entries := entriesFromFuzz(data)
		opts := BlockWriterOptions{BlockEntries: int(blockEntries)}
		if compress {
			opts.Codec = BlockFlate
		}
		encoded, err := WriteBlockTrace(entries, opts)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		br, err := NewBlockReaderAt(bytes.NewReader(encoded), int64(len(encoded)))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer br.Close()
		for i := range entries {
			got, err := br.Next()
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			want := entries[i]
			if !got.Time.Equal(want.Time) || got.Src != want.Src || got.Dst != want.Dst ||
				got.Protocol != want.Protocol || !bytes.Equal(got.Message, want.Message) {
				t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, got, want)
			}
		}
		if _, err := br.Next(); err != io.EOF {
			t.Fatalf("after last entry: %v, want io.EOF", err)
		}
	})
}

// entriesFromFuzz deterministically expands fuzz bytes into trace
// entries: each 8-byte chunk seeds one entry's timestamp delta,
// addresses, protocol, and message shape.
func entriesFromFuzz(data []byte) []Entry {
	n := len(data) / 8
	if n > 256 {
		n = 256
	}
	entries := make([]Entry, 0, n)
	prev := time.Unix(1400000000, 0)
	for i := 0; i < n; i++ {
		c := data[i*8 : i*8+8]
		v := binary.LittleEndian.Uint64(c)
		// Deltas may be negative: block encoding must survive
		// out-of-order timestamps.
		prev = prev.Add(time.Duration(int64(v%2_000_000) - 500_000))
		var src netip.AddrPort
		if c[0]&1 == 0 {
			src = netip.AddrPortFrom(netip.AddrFrom4([4]byte{c[1], c[2], c[3], c[4]}), uint16(v>>16))
		} else {
			var a16 [16]byte
			copy(a16[:], bytes.Repeat(c[:4], 4))
			src = netip.AddrPortFrom(netip.AddrFrom16(a16), uint16(v>>24))
		}
		msgLen := int(c[5]) % 64
		msg := make([]byte, msgLen)
		for j := range msg {
			msg[j] = c[j%8] ^ byte(j)
		}
		entries = append(entries, Entry{
			Time:     prev,
			Src:      src,
			Dst:      netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 41, 0, c[6]}), 53),
			Protocol: Protocol(c[7] % 3),
			Message:  msg,
		})
	}
	return entries
}

// FuzzTextTrace feeds arbitrary bytes to the plain-text reader, the §2.5
// format users edit by hand. Hostile input must error, never panic, and
// every entry the reader returns must re-encode: TextWriter writes it,
// and reading that line back yields the same entry — the text format is
// a fixed point after one parse.
func FuzzTextTrace(f *testing.F) {
	for _, s := range []string{
		"1461234567.012345 192.168.1.1:5353 198.41.0.4:53 udp 4711 rd example.com. IN A 4096 do\n",
		"# comment\n\n1461234567.000001 [2001:db8::1]:5353 [2001:db8::53]:53 tcp 7 rd+cd+ad+tc www.example.com. IN AAAA - -\n",
		"0.000000 10.0.0.1:1 10.0.0.2:53 tls 65535 - . CH TXT 512 -\n",
		"-1.999999 10.0.0.1:1 10.0.0.2:53 udp 0 - a.b.c. IN TYPE65 0 do\n",
		"1461234567.000001 192.168.1.1:5353 198.41.0.4:53 udp 7 rd example.com. IN A - do\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewTextReader(bytes.NewReader(data))
		for {
			e, err := r.Next()
			if err != nil {
				return
			}
			var buf bytes.Buffer
			w := NewTextWriter(&buf)
			if err := w.Write(e); err != nil {
				t.Fatalf("entry read from text does not re-encode: %v", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := NewTextReader(&buf).Next()
			if err != nil {
				t.Fatalf("re-encoded line %q does not parse: %v", buf.String(), err)
			}
			if !back.Time.Equal(e.Time) || back.Src != e.Src || back.Dst != e.Dst ||
				back.Protocol != e.Protocol || !bytes.Equal(back.Message, e.Message) {
				t.Fatalf("re-encoded line %q reads back as %+v, want %+v", buf.String(), back, e)
			}
		}
	})
}
