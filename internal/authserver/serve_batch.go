package authserver

import (
	"net/netip"

	"ldplayer/internal/netio"
)

// The UDP datapath: the server-side twin of the replay client's batched
// sends, and the server's only UDP loop. Each worker owns one
// SO_REUSEPORT socket (or a share of the single socket), one
// netio.UDPBatch, and one EngineShard, and loops
//
//	recvmmsg (GRO-coalesced) → shard respond into a reusable slab →
//	sendmmsg (equal-size same-peer responses GSO-coalesced)
//
// so a batch of B queries crosses the kernel twice instead of 2B times,
// and the respond stage touches no cross-shard mutable state. Off
// linux/amd64|arm64 netio's portable fallback presents the same
// Recv/Stage/SendStaged API as a batch of one datagram per system call,
// so this loop — and the race and noallocprop guards on it — is what
// runs on every platform.

// DefaultUDPBatchSize is the default per-worker receive batch width.
const DefaultUDPBatchSize = 32

// batchBufSize sizes each receive buffer for a full GRO super-datagram
// (up to 64 coalesced segments).
const batchBufSize = 64 << 10

// startUDPBatch spawns the batched workers. Each gets its own socket
// when ReusePort provided one per worker; otherwise they share (separate
// UDPBatch instances keep per-worker state disjoint, and concurrent
// recvmmsg on one fd is kernel-arbitrated).
func (s *Server) startUDPBatch() error {
	size := s.BatchSize
	if size <= 0 {
		size = DefaultUDPBatchSize
	}
	for i := 0; i < s.UDPWorkers; i++ {
		conn := s.udpConns[i%len(s.udpConns)]
		// A deep socket buffer absorbs bursts between batch drains;
		// best-effort, the kernel clamps to its limits.
		_ = conn.SetReadBuffer(4 << 20)
		b, err := netio.NewUDPBatchConfig(conn, netio.BatchConfig{
			SendMsgs: size,
			RecvMsgs: size,
			BufSize:  batchBufSize,
			Addrs:    true,
		})
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go s.serveUDPBatch(b, s.Engine.NewShard())
	}
	return nil
}

// serveUDPBatch is one worker's receive→respond→send loop.
func (s *Server) serveUDPBatch(b *netio.UDPBatch, sh *EngineShard) {
	defer s.wg.Done()
	// slab collects the batch's response images; staged reply slices
	// alias it (and, after growth, its predecessors — still-live arrays).
	slab := make([]byte, 0, batchBufSize)
	for {
		n, err := b.Recv()
		if err != nil {
			return // socket closed
		}
		sh.BeginBatch()
		slab = s.respondBatch(b, sh, slab[:0], n)
		sh.EndBatch()
		// Send errors are ignored: UDP replies are best-effort per batch.
		_, _ = b.SendStaged()
	}
}

// respondBatch answers every datagram of the received batch — splitting
// GRO-coalesced buffers into their segments — staging responses against
// their source buffers. It returns the (possibly grown) slab.
//
//ldlint:noalloc
func (s *Server) respondBatch(b *netio.UDPBatch, sh *EngineShard, slab []byte, n int) []byte {
	for i := 0; i < n; i++ {
		m := b.Msg(i)
		src := b.PeerAddr(i).Addr()
		seg := b.SegSize(i)
		if seg <= 0 || seg >= len(m) {
			slab = s.respondOne(b, sh, slab, i, m, src)
			continue
		}
		// Coalesced buffer: every segment is one query from the same
		// peer (GRO only merges one flow), the last possibly shorter.
		for off := 0; off < len(m); off += seg {
			end := off + seg
			if end > len(m) {
				end = len(m)
			}
			slab = s.respondOne(b, sh, slab, i, m[off:end], src)
		}
	}
	return slab
}

// respondOne answers a single query, staging the response when one was
// produced.
//
//ldlint:noalloc
func (s *Server) respondOne(b *netio.UDPBatch, sh *EngineShard, slab []byte, i int, query []byte, src netip.Addr) []byte {
	out, err := sh.AppendRespond(slab, query, src, UDP)
	if err == nil && len(out) > len(slab) {
		b.Stage(i, out[len(slab):])
	}
	return out
}
