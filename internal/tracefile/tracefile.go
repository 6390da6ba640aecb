// Package tracefile opens and creates trace files by extension: the one
// place the tools map a file name to a trace format (Figure 3's three
// inputs — pcap, editable text, LDTRC02 blocks — plus qlog captures read
// as traces).
package tracefile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"ldplayer/internal/pcap"
	"ldplayer/internal/qlog"
	"ldplayer/internal/trace"
)

// Reader is an open trace file.
type Reader interface {
	trace.Reader
	io.Closer
}

// fileReader pairs a stream decoder with the file it reads.
type fileReader struct {
	trace.Reader
	io.Closer
}

// Open opens the trace at path, choosing the decoder by extension. Block
// traces are mmapped and decode in parallel (trace.BlockReader); the
// other formats stream.
func Open(path string) (Reader, error) {
	if strings.HasSuffix(path, ".blk") {
		br, err := trace.OpenBlockFile(path)
		if err != nil {
			return nil, err
		}
		return br, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var r trace.Reader
	switch {
	case strings.HasSuffix(path, ".pcapng"):
		r, err = pcap.NewNgTraceReader(f)
	case strings.HasSuffix(path, ".pcap"):
		r, err = pcap.NewTraceReader(f)
	case strings.HasSuffix(path, ".txt"):
		r = trace.NewTextReader(f)
	case strings.HasSuffix(path, ".qlog"), strings.HasSuffix(path, ".qlog.z"):
		r = qlog.NewEntryReader(f)
	default:
		err = errors.New("unknown trace extension (readable: .pcap, .pcapng, .txt, .blk, .qlog, .qlog.z)")
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracefile: %s: %w", path, err)
	}
	return fileReader{r, f}, nil
}

// Writer is a trace file being written. Close finishes the format (the
// text writer's buffer, the block file's last block and footer index)
// and closes the file; a trace is not complete until it returns nil.
type Writer struct {
	trace.Writer
	finish func() error
	f      *os.File
}

// Close finishes and closes the file.
func (w *Writer) Close() error {
	return errors.Join(w.finish(), w.f.Close())
}

// Create creates (truncating) the trace at path, choosing the encoder by
// extension. compress DEFLATEs .blk blocks (archival; raw is
// replay-speed) and means nothing for text.
func Create(path string, compress bool) (*Writer, error) {
	text := strings.HasSuffix(path, ".txt")
	if !text && !strings.HasSuffix(path, ".blk") {
		return nil, fmt.Errorf("tracefile: %s: unknown trace extension (writable: .txt, .blk; traceconv also writes .pcap)", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if text {
		w := trace.NewTextWriter(f)
		return &Writer{w, w.Flush, f}, nil
	}
	codec := trace.BlockRaw
	if compress {
		codec = trace.BlockFlate
	}
	w := trace.NewBlockWriterOptions(f, trace.BlockWriterOptions{Codec: codec})
	return &Writer{w, w.Close, f}, nil
}

// WriteAll creates the trace at path (see Create) and copies r into it,
// returning the entry count. Only io.EOF ends the copy cleanly: a reader
// or generator error is an error here too, naming the entry it struck at,
// not a short trace reported as success.
func WriteAll(path string, compress bool, r trace.Reader) (int, error) {
	w, err := Create(path, compress)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n, w.Close()
		}
		if err == nil {
			err = w.Write(e)
		}
		if err != nil {
			w.Close()
			return n, fmt.Errorf("entry %d: %w", n+1, err)
		}
		n++
	}
}
