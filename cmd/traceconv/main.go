// Command traceconv converts between LDplayer's trace formats (Figure 3):
// pcap network captures, editable plain text, and the block-structured
// binary format (LDTRC02, .blk) the replay engine mmaps and decodes in
// parallel. Query-log telemetry captures (.qlog / .qlog.z, from metadns
// -qlog or a TCP collector) read as traces too, so a live capture
// converts straight into replay input.
//
// Usage:
//
//	traceconv -in capture.pcap -out queries.txt     # pcap   -> text
//	traceconv -in queries.txt  -out queries.blk     # text   -> blocks
//	traceconv -in queries.blk  -out queries.pcap    # blocks -> pcap
//	traceconv -in server.qlog  -out queries.blk     # qlog   -> blocks
//	traceconv -in queries.blk  -out archive.blk -compress  # DEFLATE blocks
//
// Formats are selected by extension (.pcap/.pcapng/.txt/.blk/.qlog/.qlog.z
// in, .txt/.blk/.pcap out); any other extension is an error. -compress
// DEFLATEs .blk output blocks (archival; raw is replay-speed).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ldplayer/internal/pcap"
	"ldplayer/internal/trace"
	"ldplayer/internal/tracefile"
)

func main() {
	in := flag.String("in", "", "input trace")
	out := flag.String("out", "", "output trace")
	queriesOnly := flag.Bool("queries-only", false, "keep queries, drop responses")
	compress := flag.Bool("compress", false, "DEFLATE .blk output blocks (archival)")
	flag.Parse()
	if err := run(*in, *out, *queriesOnly, *compress); err != nil {
		fmt.Fprintln(os.Stderr, "traceconv:", err)
		os.Exit(1)
	}
}

func run(in, out string, queriesOnly, compress bool) error {
	if in == "" || out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	f, err := tracefile.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	var r trace.Reader = f
	if queriesOnly {
		r = queryFilter{r}
	}
	n, err := convert(r, out, compress)
	if err != nil {
		return err
	}
	fmt.Printf("converted %d entries -> %s\n", n, out)
	return nil
}

// convert copies r into a new trace at out and returns the entry count.
func convert(r trace.Reader, out string, compress bool) (int, error) {
	if !strings.HasSuffix(out, ".pcap") {
		return tracefile.WriteAll(out, compress, r)
	}
	// pcap output buffers entries because the writer needs per-flow TCP
	// sequence state in one pass.
	entries, err := trace.ReadAll(r)
	if err != nil {
		return 0, err
	}
	outF, err := os.Create(out)
	if err != nil {
		return 0, err
	}
	if err := pcap.WriteDNSPcap(outF, entries); err != nil {
		outF.Close()
		return 0, err
	}
	return len(entries), outF.Close()
}

// queryFilter drops responses from a trace (-queries-only).
type queryFilter struct{ trace.Reader }

func (f queryFilter) Next() (trace.Entry, error) {
	for {
		e, err := f.Reader.Next()
		if err != nil || !isResponse(e) {
			return e, err
		}
	}
}

func isResponse(e trace.Entry) bool {
	return len(e.Message) >= 3 && e.Message[2]&0x80 != 0
}
