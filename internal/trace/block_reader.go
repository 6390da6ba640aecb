package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// BlockReader reads LDTRC02 block traces. It implements Reader,
// BatchReader, and Partitioner.
//
// Ingestion is a parallel pipeline: a dispatcher walks the block index
// in order and fans block-decode jobs out to a worker pool; workers
// CRC-check and decode blocks (several in flight, prefetching ahead of
// whatever paces the consumer — the replay timing wheel on the paced
// path); the consumer end re-merges results strictly in index order, so
// NextBatch yields entries in exactly the order the file stores them —
// global timestamp order for any writer-produced file, regardless of
// how many workers raced on the decode.
//
// Zero-copy aliasing contract: entries' Message fields alias decode
// slabs — the mmap itself for raw blocks on linux, per-block inflate or
// read buffers otherwise. Those backing bytes are immutable and are
// never recycled while the reader is open, which is what the
// Entry.Message contract requires; Close unmaps the file, so callers
// must not touch any yielded Message after Close. (The replay engine
// closes its reader only after every socket is shut down.)
type BlockReader struct {
	src *blockSource
	// blocks is the subset of the file index this reader owns (the full
	// index for an unpartitioned reader).
	blocks []IndexEntry
	// fileFirstNano is the whole file's first timestamp (not the
	// partition's): every partition paces against the same trace epoch.
	fileFirstNano int64
	hasEntries    bool

	opts BlockReaderOptions

	startOnce sync.Once
	ordered   chan *blockJob
	quit      chan struct{}
	closeOnce sync.Once

	partitioned bool

	cur    []Entry
	curPos int
	err    error
}

// blockSource is the shared byte source behind a reader and all of its
// partitions: an mmap when the platform provides one, otherwise an
// io.ReaderAt. The opening reader owns f/mmap; partitions borrow.
type blockSource struct {
	ra   io.ReaderAt
	size int64
	mmap []byte // nil on the portable path
	f    *os.File
}

// blockBytes returns the stored bytes of block b: a subslice of the
// mmap on the fast path (zero copies, zero syscalls), or a fresh
// buffer read via ReadAt otherwise.
func (s *blockSource) blockBytes(off int64, n uint32) ([]byte, error) {
	if off < 0 || int64(n) > s.size-off {
		return nil, io.ErrUnexpectedEOF
	}
	if s.mmap != nil {
		return s.mmap[off : off+int64(n) : off+int64(n)], nil
	}
	buf := make([]byte, n)
	if _, err := s.ra.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (s *blockSource) close() error {
	var err error
	if s.mmap != nil {
		err = munmapFile(s.mmap)
		s.mmap = nil
	}
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// BlockReaderOptions shape a BlockReader.
type BlockReaderOptions struct {
	// Workers is the decode worker count (default min(GOMAXPROCS, 8)).
	Workers int
	// Prefetch is how many decoded blocks may sit ahead of the consumer
	// (default Workers + 2). Each buffered block pins its slab, so this
	// bounds memory to roughly Prefetch × block raw size.
	Prefetch int
}

func (o *BlockReaderOptions) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.Prefetch <= 0 {
		o.Prefetch = o.Workers + 2
	}
}

// blockJob is one block's decode future: the dispatcher queues it to a
// worker and (in file order) to the ordered channel; the consumer waits
// on done.
type blockJob struct {
	idx     IndexEntry
	entries []Entry
	err     error
	done    chan struct{}
}

// OpenBlockFile opens path as an LDTRC02 block trace: mmap on linux,
// ReaderAt fallback elsewhere. Close releases the mapping — see the
// aliasing contract on BlockReader.
func OpenBlockFile(path string) (*BlockReader, error) {
	return OpenBlockFileOptions(path, BlockReaderOptions{})
}

// OpenBlockFileOptions opens path with explicit reader options.
func OpenBlockFileOptions(path string, opts BlockReaderOptions) (*BlockReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	src := &blockSource{ra: f, size: st.Size(), f: f}
	if m, ok := mmapFile(f, st.Size()); ok {
		src.mmap = m
	}
	br, err := newBlockReader(src, opts)
	if err != nil {
		src.close()
		return nil, err
	}
	return br, nil
}

// NewBlockReaderAt reads a block trace from any io.ReaderAt (tests, in-
// memory traces, seekable network blobs).
func NewBlockReaderAt(ra io.ReaderAt, size int64) (*BlockReader, error) {
	return newBlockReader(&blockSource{ra: ra, size: size}, BlockReaderOptions{})
}

func newBlockReader(src *blockSource, opts BlockReaderOptions) (*BlockReader, error) {
	opts.defaults()
	var magic [8]byte
	if src.size < int64(len(magic)) {
		return nil, io.ErrUnexpectedEOF
	}
	if err := readFullAt(src, magic[:], 0); err != nil {
		return nil, err
	}
	if magic != blockFileMagic {
		return nil, fmt.Errorf("trace: bad block-trace magic %q", magic[:])
	}
	index, err := loadIndex(src)
	if err != nil {
		return nil, err
	}
	br := &BlockReader{src: src, blocks: index, opts: opts}
	for _, b := range index {
		if b.Count > 0 {
			br.fileFirstNano = b.FirstNano
			br.hasEntries = true
			break
		}
	}
	return br, nil
}

func readFullAt(src *blockSource, buf []byte, off int64) error {
	if src.mmap != nil {
		if off < 0 || int64(len(buf)) > src.size-off {
			return io.ErrUnexpectedEOF
		}
		copy(buf, src.mmap[off:])
		return nil
	}
	_, err := src.ra.ReadAt(buf, off)
	return err
}

// loadIndex reads the footer index, falling back to a header-chain scan
// when the trailer is missing or damaged (e.g. a writer that never
// reached Close). A scan that runs into a torn block reports the
// truncation instead of silently dropping the tail.
func loadIndex(src *blockSource) ([]IndexEntry, error) {
	if idx, ok := loadFooterIndex(src); ok {
		return idx, nil
	}
	return scanIndex(src)
}

// loadFooterIndex attempts the trailer path; ok=false falls back to a
// scan.
func loadFooterIndex(src *blockSource) ([]IndexEntry, bool) {
	if src.size < int64(len(blockFileMagic)+blockTrailerSize) {
		return nil, false
	}
	var tr [blockTrailerSize]byte
	if err := readFullAt(src, tr[:], src.size-blockTrailerSize); err != nil {
		return nil, false
	}
	if [8]byte(tr[8:16]) != blockTrailer {
		return nil, false
	}
	off := int64(binary.BigEndian.Uint64(tr[:8]))
	if off < int64(len(blockFileMagic)) || off >= src.size-blockTrailerSize {
		return nil, false
	}
	buf := make([]byte, src.size-blockTrailerSize-off)
	if err := readFullAt(src, buf, off); err != nil {
		return nil, false
	}
	idx, err := parseIndex(buf)
	if err != nil {
		return nil, false
	}
	// Sanity: offsets must be in range and ascending, or the index is
	// hostile and the scan decides.
	prev := int64(len(blockFileMagic)) - 1
	for _, b := range idx {
		if b.Offset <= prev || b.Offset+blockHeaderSize > src.size {
			return nil, false
		}
		prev = b.Offset
	}
	return idx, true
}

// scanIndex rebuilds the index by walking block headers front to back.
func scanIndex(src *blockSource) ([]IndexEntry, error) {
	var idx []IndexEntry
	off := int64(len(blockFileMagic))
	var hdr [blockHeaderSize]byte
	for off < src.size {
		remaining := src.size - off
		// The index magic (or a clean EOF) terminates the chain.
		if remaining >= 4 {
			var m [4]byte
			if err := readFullAt(src, m[:], off); err != nil {
				return nil, err
			}
			if binary.BigEndian.Uint32(m[:]) == indexMagic {
				return idx, nil
			}
		}
		if remaining < blockHeaderSize {
			return nil, fmt.Errorf("trace: truncated block header at offset %d: %w", off, io.ErrUnexpectedEOF)
		}
		if err := readFullAt(src, hdr[:], off); err != nil {
			return nil, err
		}
		h, err := ParseBlockHeader(hdr[:])
		if err != nil {
			return nil, fmt.Errorf("trace: block at offset %d: %w", off, err)
		}
		if int64(h.StoredLen) > src.size-off-blockHeaderSize {
			return nil, fmt.Errorf("trace: truncated block payload at offset %d: %w", off, io.ErrUnexpectedEOF)
		}
		idx = append(idx, IndexEntry{Offset: off, Count: h.Count, FirstNano: h.FirstNano, LastNano: h.LastNano})
		off += blockHeaderSize + int64(h.StoredLen)
	}
	return idx, nil
}

// TraceStart reports the file's first entry timestamp — the global
// replay epoch, identical across partitions, so sharded replays pace
// against one synchronization point.
func (br *BlockReader) TraceStart() (t0 time.Time, ok bool) {
	if !br.hasEntries {
		return time.Time{}, false
	}
	return time.Unix(0, br.fileFirstNano), true
}

// Blocks reports the reader's block index (its own partition's subset).
func (br *BlockReader) Blocks() []IndexEntry { return br.blocks }

// Entries reports the total entry count across the reader's blocks.
func (br *BlockReader) Entries() int64 {
	var n int64
	for _, b := range br.blocks {
		n += int64(b.Count)
	}
	return n
}

// Partition splits the reader into n sub-readers over disjoint,
// round-robin interleaved subsets of its blocks. Each partition yields
// its blocks in file order (so per-partition timestamps stay
// monotonic), shares the parent's mapping, and runs its own decode
// pipeline. Valid only before any read; afterwards, or for n <= 1, it
// reports ok=false and the caller should read sequentially. The parent
// must stay un-read and must be Closed only after every partition is
// done (Close on a partition releases just its pipeline).
func (br *BlockReader) Partition(n int) ([]Reader, bool) {
	if n <= 1 || br.partitioned || br.cur != nil || br.ordered != nil || len(br.blocks) == 0 {
		return nil, false
	}
	br.partitioned = true
	if n > len(br.blocks) {
		n = len(br.blocks)
	}
	parts := make([]Reader, n)
	for i := 0; i < n; i++ {
		sub := make([]IndexEntry, 0, len(br.blocks)/n+1)
		for j := i; j < len(br.blocks); j += n {
			sub = append(sub, br.blocks[j])
		}
		parts[i] = &BlockReader{
			src:           &blockSource{ra: br.src.ra, size: br.src.size, mmap: br.src.mmap},
			blocks:        sub,
			fileFirstNano: br.fileFirstNano,
			hasEntries:    br.hasEntries,
			opts:          br.opts,
			partitioned:   true, // borrows the mapping; Close won't unmap
		}
	}
	return parts, true
}

// start spins up the decode pipeline on first read.
func (br *BlockReader) start() {
	br.ordered = make(chan *blockJob, br.opts.Prefetch)
	br.quit = make(chan struct{})
	jobs := make(chan *blockJob)
	for i := 0; i < br.opts.Workers; i++ {
		go br.worker(jobs)
	}
	go func() {
		defer close(br.ordered)
		defer close(jobs)
		for _, b := range br.blocks {
			job := &blockJob{idx: b, done: make(chan struct{})}
			select {
			case jobs <- job:
			case <-br.quit:
				return
			}
			select {
			case br.ordered <- job:
			case <-br.quit:
				return
			}
		}
	}()
}

// worker decodes blocks until the job channel closes.
func (br *BlockReader) worker(jobs <-chan *blockJob) {
	var hdr [blockHeaderSize]byte
	for job := range jobs {
		job.entries, job.err = br.decodeOne(job.idx, hdr[:])
		close(job.done)
	}
}

// decodeOne reads and decodes one block.
func (br *BlockReader) decodeOne(b IndexEntry, hdrBuf []byte) ([]Entry, error) {
	if err := readFullAt(br.src, hdrBuf, b.Offset); err != nil {
		return nil, err
	}
	hdr, err := ParseBlockHeader(hdrBuf)
	if err != nil {
		return nil, err
	}
	if hdr.Count != b.Count {
		return nil, fmt.Errorf("trace: block at offset %d disagrees with index (%d vs %d entries)", b.Offset, hdr.Count, b.Count)
	}
	stored, err := br.src.blockBytes(b.Offset+blockHeaderSize, hdr.StoredLen)
	if err != nil {
		return nil, err
	}
	return DecodeBlock(hdr, stored, nil)
}

// nextBlock advances cur to the next decoded block, in file order.
func (br *BlockReader) nextBlock() error {
	if br.err != nil {
		return br.err
	}
	//ldlint:ignore noallocprop one-time decode-pipeline start under sync.Once; steady-state reads recycle decoded blocks
	br.startOnce.Do(br.start)
	for {
		job, ok := <-br.ordered
		if !ok {
			br.err = io.EOF
			return io.EOF
		}
		<-job.done
		if job.err != nil {
			br.err = job.err
			return job.err
		}
		if len(job.entries) == 0 {
			continue // zero-entry block: legal, yields nothing
		}
		br.cur = job.entries
		br.curPos = 0
		return nil
	}
}

// Next implements Reader.
func (br *BlockReader) Next() (Entry, error) {
	for br.curPos >= len(br.cur) {
		if err := br.nextBlock(); err != nil {
			return Entry{}, err
		}
	}
	e := br.cur[br.curPos]
	br.curPos++
	return e, nil
}

// NextBatch implements BatchReader: it copies entry views (not message
// bytes) out of the current decoded block. Message fields alias the
// reader's slabs per the zero-copy contract.
//
//ldlint:noalloc
func (br *BlockReader) NextBatch(dst []Entry) (int, error) {
	for br.curPos >= len(br.cur) {
		if err := br.nextBlock(); err != nil {
			return 0, err
		}
	}
	n := copy(dst, br.cur[br.curPos:])
	br.curPos += n
	return n, nil
}

// Close shuts the decode pipeline down and, for the reader that owns
// the file (not partitions), unmaps/closes it. After Close no Entry
// yielded by this reader (or, for an owner, its partitions) may be
// used.
func (br *BlockReader) Close() error {
	br.closeOnce.Do(func() {
		if br.ordered != nil {
			close(br.quit)
			// Drain so every in-flight worker finishes before the mapping
			// can go away.
			for job := range br.ordered {
				<-job.done
			}
		}
		if br.err == nil {
			br.err = errors.New("trace: block reader closed")
		}
	})
	if br.partitioned && br.src.f == nil {
		return nil // borrower: owner unmaps
	}
	return br.src.close()
}

// StreamReader reads an LDTRC02 block stream front to back off any
// io.Reader — the controller↔client link, a pipe — where BlockReader
// needs a seekable file. It implements BatchReader. Each block is read
// into one fresh slab that its entries' Message fields alias (the
// Entry.Message immutability contract); the Entry views themselves are
// copied out, so their backing array is reused block to block.
type StreamReader struct {
	r   *bufio.Reader
	fr  *FrameReader
	cur []Entry
	pos int
}

// NewStreamReader reads a block stream, file magic first, from r.
func NewStreamReader(r *bufio.Reader) *StreamReader { return &StreamReader{r: r} }

// Indexed reports whether the stream ended at its footer index, which
// only a writer that reached Close produces: a link or pipe consumer uses
// it to tell a finished trace from a writer that died between blocks.
func (sr *StreamReader) Indexed() bool { return sr.fr != nil && sr.fr.Indexed() }

func (sr *StreamReader) nextBlock() error {
	if sr.fr == nil {
		var magic [8]byte
		if _, err := io.ReadFull(sr.r, magic[:]); err != nil {
			return tornFrame(err)
		}
		if magic != blockFileMagic {
			return fmt.Errorf("trace: bad block-trace magic %q", magic[:])
		}
		sr.fr = NewFrameReader(sr.r)
	}
	hdr, raw, err := sr.fr.Next()
	if err != nil {
		return err
	}
	sr.cur, err = decodeColumns(hdr, raw, sr.cur[:0])
	sr.pos = 0
	return err
}

// Next implements Reader.
func (sr *StreamReader) Next() (Entry, error) {
	var one [1]Entry
	_, err := sr.NextBatch(one[:])
	return one[0], err
}

// NextBatch implements BatchReader.
func (sr *StreamReader) NextBatch(dst []Entry) (int, error) {
	for sr.pos >= len(sr.cur) {
		if err := sr.nextBlock(); err != nil {
			return 0, err
		}
	}
	n := copy(dst, sr.cur[sr.pos:])
	sr.pos += n
	return n, nil
}

// in-memory block trace helpers (tests and benches).

// WriteBlockTrace encodes entries as an in-memory LDTRC02 file.
func WriteBlockTrace(entries []Entry, opts BlockWriterOptions) ([]byte, error) {
	var buf bytes.Buffer
	w := NewBlockWriterOptions(&buf, opts)
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
