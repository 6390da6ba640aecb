//go:build !linux || !(amd64 || arm64)

package netio

import (
	"net"
	"net/netip"
)

// UDPBatch is the portable fallback: the same API over per-datagram
// Write/ReadFromUDP calls, so callers batch unconditionally and only the
// syscall count differs between platforms. Recv reads one datagram per
// call, so there is one receive buffer, length and peer address however
// wide a batch the caller asked for. Unlike the Linux receive slab, that
// buffer is owned, not borrowed: Recv blocks inside conn.Read, which
// offers no hook between readiness and the read to borrow it in, nor
// one before the goroutine parks to hand it back.
type UDPBatch struct {
	conn  *net.UDPConn
	buf   []byte
	n     int
	addr  netip.AddrPort
	peers bool

	stageMsgs [][]byte
}

// NewUDPBatch builds batched I/O state for c; see the Linux variant for
// the contract. The fallback sends and receives one datagram per call, so
// sendN and recvN change nothing.
func NewUDPBatch(c *net.UDPConn, sendN, recvN, bufSize int, withAddrs bool) (*UDPBatch, error) {
	return NewUDPBatchConfig(c, BatchConfig{SendMsgs: sendN, RecvMsgs: recvN, BufSize: bufSize, Addrs: withAddrs})
}

// NewUDPBatchConfig builds batched I/O state for c from cfg. The
// fallback never coalesces, so cfg.NoOffload changes nothing.
func NewUDPBatchConfig(c *net.UDPConn, cfg BatchConfig) (*UDPBatch, error) {
	_, _, bufSize := clampBatch(cfg.SendMsgs, cfg.RecvMsgs, cfg.BufSize)
	return &UDPBatch{conn: c, buf: make([]byte, bufSize), peers: cfg.Addrs}, nil
}

// Cap returns the per-call receive message capacity: one.
func (b *UDPBatch) Cap() int { return 1 }

// Send transmits msgs with one Write per datagram. Progress contract as
// on Linux: sent < len(msgs) implies err != nil.
//
//ldlint:noalloc
func (b *UDPBatch) Send(msgs [][]byte) (int, error) {
	for i, m := range msgs {
		if _, err := b.conn.Write(m); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// Recv reads one datagram (the portable loop cannot drain a burst in one
// call without deadline games).
func (b *UDPBatch) Recv() (int, error) {
	var err error
	if b.peers {
		b.n, b.addr, err = b.conn.ReadFromUDPAddrPort(b.buf)
	} else {
		b.n, err = b.conn.Read(b.buf)
	}
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// Msg returns the datagram the last Recv read; i is always 0.
func (b *UDPBatch) Msg(i int) []byte { return b.buf[:b.n] }

// SegSize returns the GRO segment size of received buffer i; the
// portable fallback never coalesces, so it is always 0.
func (b *UDPBatch) SegSize(i int) int { return 0 }

// PeerAddr returns the sender address of the datagram the last Recv
// read. Only valid when the UDPBatch was built with addresses, between a
// Recv and the next.
//
//ldlint:noalloc
func (b *UDPBatch) PeerAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(b.addr.Addr().Unmap(), b.addr.Port())
}

// Stage queues msg as a reply to the sender of the received datagram.
//
//ldlint:noalloc
func (b *UDPBatch) Stage(i int, msg []byte) {
	b.stageMsgs = append(b.stageMsgs, msg)
}

// SendStaged transmits every staged reply, one write per datagram, and
// resets the staging queue. Progress contract as on Linux.
//
//ldlint:noalloc
func (b *UDPBatch) SendStaged() (int, error) {
	staged := b.stageMsgs
	b.stageMsgs = b.stageMsgs[:0]
	for i, m := range staged {
		if _, err := b.conn.WriteToUDPAddrPort(m, b.addr); err != nil {
			return i, err
		}
	}
	return len(staged), nil
}
