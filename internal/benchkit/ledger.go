package benchkit

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"ldplayer/internal/trace"
)

// ledgerSample caps how many leading entries the isolated rows replay:
// enough for each row to run a few hundred milliseconds, in trace order
// so cache behaviour is the workload's own.
const ledgerSample = 200_000

// Blaster geometry for the serve_* rows: a few sockets so SO_REUSEPORT
// spreads them over the server's workers, one sendmmsg-sized burst in
// flight on each.
const (
	blastSockets = 8
	blastDepth   = 64
)

// perOp times fn over n operations and returns ns and heap allocations
// per operation.
func perOp(n int, fn func() error) (ns, allocs float64, err error) {
	s0 := takeSnapshot()
	err = fn()
	s1 := takeSnapshot()
	return float64(s1.at.Sub(s0.at).Nanoseconds()) / float64(n), float64(s1.allocs-s0.allocs) / float64(n), err
}

// RunLedger fills the per-layer rows that are timed calls into one
// layer's public functions, each over the same generated inputs as the
// end-to-end run (cfg.TracePath), single goroutine unless the layer
// brings its own.
func RunLedger(cfg RepConfig) (Metrics, error) {
	w := cfg.Workload
	m := Metrics{}

	// trace: decode the whole file through the block reader; keep the
	// leading sample (its messages alias the mapping, so the reader stays
	// open until the rows are done).
	keep, n, err := openBlockFile(cfg.TracePath)
	if err != nil {
		return nil, err
	}
	defer keep.Close()
	sample := make([]trace.Entry, min(n, ledgerSample))
	for got := 0; got < len(sample); {
		k, err := keep.NextBatch(sample[got:])
		if got += k; err != nil {
			return nil, fmt.Errorf("benchkit: sampling %s: %w", cfg.TracePath, err)
		}
	}
	br, _, err := openBlockFile(cfg.TracePath)
	if err != nil {
		return nil, err
	}
	buf := make([]trace.Entry, 4096)
	m["trace.decode_ns_per_entry"], m["trace.decode_allocs_per_entry"], err = perOp(n, func() error {
		for {
			if _, err := br.NextBatch(buf); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
		}
	})
	br.Close()
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(cfg.TracePath); err == nil {
		m["trace.file_bytes_per_entry"] = float64(fi.Size()) / float64(n)
	}
	write, finish := blockSink(io.Discard)
	m["trace.encode_ns_per_entry"], _, err = perOp(len(sample), func() error {
		for i := range sample {
			if err := write(sample[i]); err != nil {
				return err
			}
		}
		return finish()
	})
	if err != nil {
		return nil, err
	}

	// traceg, mutate: the set-up stages.
	gen, err := w.source(cfg.Seed, len(sample))
	if err != nil {
		return nil, err
	}
	genN := min(len(sample), ledgerSample/2)
	m["traceg.gen_ns_per_entry"], _, err = perOp(genN, func() error {
		for i := 0; i < genN; i++ {
			if _, err := gen.Next(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	toTCP, mutated := forceTCP(), append([]trace.Entry(nil), sample...)
	m["mutate.ns_per_entry"], _, err = perOp(len(mutated), func() error {
		for i := range mutated {
			if err := toTCP(&mutated[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// hierarchy, zone.
	slds, err := sldNames(cfg.Seed)
	if err != nil {
		return nil, err
	}
	var h hierarchyT
	buildNs, _, err := perOp(1, func() (err error) { h, err = buildHierarchy(slds); return })
	if err != nil {
		return nil, err
	}
	m["hierarchy.build_ms"] = buildNs / 1e6
	m["zone.records"] = float64(zoneRecords(h))
	resolve, targets := lookupResolver(h), make([]lookupTarget, len(sample))
	for i := range sample {
		if targets[i], err = resolve(sample[i].Message); err != nil {
			return nil, err
		}
	}
	m["zone.lookup_ns_per_query"], _, _ = perOp(len(targets), func() error {
		for i := range targets {
			if targets[i].z != nil {
				targets[i].lookup()
			}
		}
		return nil
	})

	// dnswire: unpack the queries; pack the responses the reference path
	// gives (each unpacked first, outside the timer).
	unpack, pack := wireCodec()
	m["dnswire.unpack_ns_per_query"], _, err = perOp(len(sample), func() error {
		for i := range sample {
			if err := unpack(sample[i].Message); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ref, err := newAuthEngine(h)
	if err != nil {
		return nil, err
	}
	var packNs time.Duration
	packBuf := make([]byte, 0, 4096)
	packed := min(len(sample), ledgerSample/10)
	for i := 0; i < packed; i++ {
		resp, err := respondReference(ref, &sample[i])
		if err != nil {
			return nil, err
		}
		if err := unpack(resp); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := pack(packBuf[:0]); err != nil {
			return nil, err
		}
		packNs += time.Since(t0)
	}
	m["dnswire.pack_ns_per_response"] = float64(packNs.Nanoseconds()) / float64(packed)

	// authserver: the shard path over the query stream in order, on an
	// engine that has seen nothing, so the cache fills as the workload
	// fills it.
	fresh, err := newAuthEngine(h)
	if err != nil {
		return nil, err
	}
	respond, dst := shardResponder(fresh), make([]byte, 0, 4096)
	m["authserver.respond_ns_per_query"], m["authserver.respond_allocs_per_query"], err = perOp(len(sample), func() error {
		for i := range sample {
			out, err := respond(dst[:0], &sample[i])
			if err != nil || len(out) == 0 {
				return fmt.Errorf("benchkit: shard path did not answer entry %d: %v", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// authserver + kernel, no replay engine: the real server driven closed
	// loop by a minimal blaster.
	queries := make([][]byte, len(sample))
	for i := range sample {
		queries[i] = sample[i].Message
	}
	srv, err := startServer(h, false)
	if err != nil {
		return nil, err
	}
	m["authserver.serve_udp_ns_per_query"], _, err = perOp(len(queries), func() error { return blastUDP(srv.UDPAddr(), queries) })
	if err == nil {
		m["authserver.serve_tcp_ns_per_query"], _, err = perOp(len(queries), func() error { return blastTCP(srv.TCPAddr(), queries) })
	}
	srv.Close()
	if err != nil {
		return nil, err
	}

	// netio: the kernel floor at the workload's median datagram size.
	if err := netioFloor(m, medianLen(queries)); err != nil {
		return nil, err
	}

	// replay without a server: the engine in fast mode into sockets nobody
	// answers, from memory and then through the controller link.
	sink, err := newSink()
	if err != nil {
		return nil, err
	}
	defer sink.close()
	sendOnly := func(run func(en clientT, r trace.Reader) error) (ns, allocs float64, err error) {
		// A 1ns drain: nothing will answer, so do not wait for it.
		en, err := newClient(sink.udp, sink.tcp, true, time.Nanosecond, clientHooks{})
		if err != nil {
			return 0, 0, err
		}
		return perOp(len(sample), func() error { return run(en, newSliceReader(sample)) })
	}
	m["replay.sendonly_ns_per_query"], m["replay.sendonly_allocs_per_query"], err = sendOnly(func(en clientT, r trace.Reader) error {
		return replayAll(en, r, len(sample))
	})
	if err != nil {
		return nil, err
	}
	m["replay.link_ns_per_entry"], _, err = sendOnly(func(en clientT, r trace.Reader) error {
		return replayAllOverLink(en, r, len(sample))
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

func medianLen(msgs [][]byte) int {
	lens := make([]int64, len(msgs))
	for i, q := range msgs {
		lens[i] = int64(len(q))
	}
	sortInt64(lens)
	return int(Quantile(lens, 0.5))
}

// blastUDP pushes queries through the server in rounds: one burst per
// socket, then every socket's answers.
func blastUDP(addr string, queries [][]byte) error {
	var ports [blastSockets]*udpPort
	for i := range ports {
		p, err := openUDPPort(addr, blastDepth, 4)
		if err != nil {
			return err
		}
		defer p.close()
		p.deadline(time.Minute)
		ports[i] = p
	}
	for len(queries) > 0 {
		var want [blastSockets]int
		for i, p := range ports {
			want[i] = min(blastDepth, len(queries))
			if err := p.send(queries[:want[i]]); err != nil {
				return err
			}
			queries = queries[want[i]:]
		}
		for i, p := range ports {
			for got := 0; got < want[i]; {
				k, err := p.recv()
				if err != nil {
					return fmt.Errorf("benchkit: udp blaster lost %d of %d answers: %w", want[i]-got, want[i], err)
				}
				got += k
			}
		}
	}
	return nil
}

// blastTCP is blastUDP over pipelined RFC 1035 streams: each round
// writes one burst of framed queries per connection, then reads the same
// number of framed answers.
func blastTCP(addr string, queries [][]byte) error {
	type stream struct {
		c net.Conn
		r *bufio.Reader
	}
	var conns [blastSockets]stream
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(time.Minute)) // a stuck server fails the row
		conns[i] = stream{c, bufio.NewReaderSize(c, 64<<10)}
	}
	var frame []byte
	for len(queries) > 0 {
		var want [blastSockets]int
		for i, s := range conns {
			want[i] = min(blastDepth, len(queries))
			frame = frame[:0]
			for _, q := range queries[:want[i]] {
				frame = binary.BigEndian.AppendUint16(frame, uint16(len(q)))
				frame = append(frame, q...)
			}
			if _, err := s.c.Write(frame); err != nil {
				return err
			}
			queries = queries[want[i]:]
		}
		for i, s := range conns {
			for got := 0; got < want[i]; got++ {
				var hdr [2]byte
				if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
					return fmt.Errorf("benchkit: tcp blaster: %w", err)
				}
				if _, err := s.r.Discard(int(binary.BigEndian.Uint16(hdr[:]))); err != nil {
					return fmt.Errorf("benchkit: tcp blaster: %w", err)
				}
			}
		}
	}
	return nil
}

// netioFloor times UDPBatch.Send and Recv on loopback at one datagram and
// at 64 per call: what the kernel charges per packet with nothing above
// it. b64 bounds the few-flow workload, b1 the many-flow one.
func netioFloor(m Metrics, size int) error {
	const rounds = 800 // × 64 datagrams per round
	msgs := make([][]byte, blastDepth)
	for i := range msgs {
		msgs[i] = make([]byte, size)
	}
	for _, width := range []int{1, blastDepth} {
		rx, err := openUDPPort("", 1, width)
		if err != nil {
			return err
		}
		tx, err := openUDPPort(rx.addr(), width, 1)
		if err != nil {
			rx.close()
			return err
		}
		rx.deadline(time.Minute)
		var sendNs, recvNs time.Duration
		err = func() error {
			for r := 0; r < rounds; r++ {
				t0 := time.Now()
				for off := 0; off < blastDepth; off += width {
					if err := tx.send(msgs[off : off+width]); err != nil {
						return err
					}
				}
				t1 := time.Now()
				for got := 0; got < blastDepth; {
					k, err := rx.recv()
					if err != nil {
						return fmt.Errorf("benchkit: netio floor lost datagrams on loopback: %w", err)
					}
					got += k
				}
				sendNs += t1.Sub(t0)
				recvNs += time.Since(t1)
			}
			return nil
		}()
		tx.close()
		rx.close()
		if err != nil {
			return err
		}
		pkts := float64(rounds * blastDepth)
		m[fmt.Sprintf("netio.send_ns_per_pkt_b%d", width)] = float64(sendNs.Nanoseconds()) / pkts
		m[fmt.Sprintf("netio.recv_ns_per_pkt_b%d", width)] = float64(recvNs.Nanoseconds()) / pkts
	}
	return nil
}

// sink is where send-only replays go: a bound UDP socket nobody reads
// (the kernel drops what overflows it) and a TCP listener that reads and
// discards, since an unread stream would block the sender instead.
type sink struct {
	udpPort  *udpPort
	ln       net.Listener
	udp, tcp string
}

func newSink() (*sink, error) {
	p, err := openUDPPort("", 1, 1)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			// Ends when the engine closes its side at the end of a replay.
			go func() { _, _ = io.Copy(io.Discard, c); c.Close() }()
		}
	}()
	return &sink{udpPort: p, ln: ln, udp: p.addr(), tcp: ln.Addr().String()}, nil
}

func (s *sink) close() { s.udpPort.close(); s.ln.Close() }
