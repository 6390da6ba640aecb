//go:build linux && (amd64 || arm64)

package netio

import (
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-written
// received-length field. The trailing pad keeps the array stride at the
// kernel's 8-byte alignment.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      [4]byte
}

// UDP-level socket options for generic segmentation/receive offload
// (linux/udp.h). With UDP_SEGMENT a single send carries many equal-size
// datagrams in one skb; with UDP_GRO the receiving socket accepts that
// skb whole and reports the segment size via cmsg. On loopback the two
// together let a super-packet cross the stack without ever being
// segmented, collapsing the per-datagram kernel cost on both sides.
const (
	solUDP     = 17
	udpSegment = 103
	udpGRO     = 104

	// gsoMaxSegs is the kernel's UDP_MAX_SEGMENTS floor (64 until 5.19).
	gsoMaxSegs = 64
	// gsoMaxBytes keeps a segmented send under the IPv4 datagram limit.
	gsoMaxBytes = 60000
)

// cmsgSeg is one aligned control-message slot: a cmsghdr plus room for
// the UDP_SEGMENT (__u16) or UDP_GRO (int) payload. Struct layout keeps
// the data field naturally aligned; both supported GOARCHes are
// little-endian, so storing uint32(v) yields the right __u16 bytes.
type cmsgSeg struct {
	hdr  syscall.Cmsghdr
	data uint32
	_    [4]byte
}

const (
	cmsgSegSpace = int(unsafe.Sizeof(cmsgSeg{}))
	cmsgLenU16   = syscall.SizeofCmsghdr + 2
	cmsgLenInt   = syscall.SizeofCmsghdr + 4
)

// UDPBatch is a batched I/O facade over one UDP socket.
type UDPBatch struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	// gso/gro record whether the kernel accepted the respective socket
	// options at construction time; when false the corresponding path
	// degrades to plain per-datagram sendmmsg/recvmmsg.
	gso bool
	gro bool

	// send state
	sendIovs []syscall.Iovec
	sendHdrs []mmsghdr
	sendCtl  []cmsgSeg
	sendRuns []int // messages carried by each staged header

	// receive state. The iovecs point into slab, bufSize bytes per
	// buffer, only while a Recv holds it: the slab is borrowed from
	// slabs when the socket is readable and handed back before the
	// reader parks, so an idle socket holds no receive memory.
	slabs    *slabList
	slab     []byte
	bufSize  int
	recvIovs []syscall.Iovec
	recvHdrs []mmsghdr
	recvCtl  []cmsgSeg
	lens     []int
	segs     []int // GRO segment size per received buffer (0 = plain)

	// peer-address state (withAddrs only): raw sockaddr storage written
	// by recvmmsg and handed back verbatim to sendmmsg by SendStaged.
	names [][]byte

	// reply staging (withAddrs only): arbitrary response payloads queued
	// against received-buffer indices, flushed by SendStaged. Grown by
	// append and reused across batches.
	stageMsgs [][]byte
	stageIdx  []int

	// Prebuilt RawConn callbacks with their in/out parameters staged in
	// the fields below: a literal closure passed to rc.Read/rc.Write
	// escapes and costs one heap allocation per syscall batch, which at
	// replay rates is an allocation per query.
	sendFn    func(fd uintptr) bool
	sendChunk int // in: headers staged in sendHdrs
	sendDone  int // out: headers submitted
	sendErr   error
	recvFn    func(fd uintptr) bool // b.recvOnce
	recvGot   int                   // out: messages received
	recvErr   error
}

// slabList is the free list of receive slabs of one size, shared by
// every UDPBatch whose slabs are that size. Not a sync.Pool, which every
// GC empties: a reader that wakes after a collection would allocate its
// slab afresh. A stack, not a FIFO channel: the slab handed back last is
// the one most likely still in cache, and the kernel's copy into a cold
// slab costs measurable goodput on a busy socket. Slabs are made only
// when the list is empty, so it holds about as many as readers were ever
// between a wake-up and their next park at once — a few per CPU, however
// many sockets are open. A slab handed back to a full list goes to the GC.
type slabList struct {
	size int
	mu   sync.Mutex
	free [][]byte     // capacity slabFreeCap
	made atomic.Int64 // slabs allocated over the process's lifetime
}

// slabFreeCap is what a free list keeps once its readers park: far above
// the few readers a host has awake at once, and at most 16 MiB of the
// replay client's 256 KiB slabs.
const slabFreeCap = 64

// slabLists maps a slab size to its free list.
var slabLists = struct {
	sync.Mutex
	m map[int]*slabList
}{m: make(map[int]*slabList)}

// slabListOf returns the free list for slabs of size bytes.
func slabListOf(size int) *slabList {
	slabLists.Lock()
	defer slabLists.Unlock()
	l := slabLists.m[size]
	if l == nil {
		l = &slabList{size: size, free: make([][]byte, 0, slabFreeCap)}
		slabLists.m[size] = l
	}
	return l
}

func (l *slabList) get() []byte {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return s
	}
	l.mu.Unlock()
	l.made.Add(1)
	//ldlint:ignore noallocprop amortized freelist refill: a fresh slab only when every recycled one is held by a reader between wake-up and park
	return make([]byte, l.size)
}

func (l *slabList) put(s []byte) {
	l.mu.Lock()
	if len(l.free) < cap(l.free) {
		l.free = append(l.free, s)
	}
	l.mu.Unlock()
}

// sockaddrStorage is large enough for any AF_INET/AF_INET6 sockaddr.
const sockaddrStorage = 28

// NewUDPBatch builds batched I/O state for c: up to sendN messages per
// send call, recvN buffers per receive call, each receive buffer bufSize
// bytes. withAddrs enables peer-address capture (required for PeerAddr
// and Stage/SendStaged on unconnected sockets). When the kernel supports
// it, sends coalesce runs of equal-size messages into single GSO
// super-datagrams and receives accept coalesced buffers — size receive
// buffers for up to 64 segments per buffer when responses may arrive
// coalesced.
//
// The recvN×bufSize receive slab is not the UDPBatch's own. Recv borrows
// one from a process-wide free list when the socket is readable, keeps it
// while the caller reads the buffers and into the next Recv, and hands it
// back when that Recv finds the socket empty and parks. A socket whose
// reader is parked costs only its headers.
func NewUDPBatch(c *net.UDPConn, sendN, recvN, bufSize int, withAddrs bool) (*UDPBatch, error) {
	return NewUDPBatchConfig(c, BatchConfig{SendMsgs: sendN, RecvMsgs: recvN, BufSize: bufSize, Addrs: withAddrs})
}

// NewUDPBatchConfig builds batched I/O state for c from cfg; see
// NewUDPBatch for the base contract. cfg.NoOffload skips the GSO/GRO
// probes entirely, pinning the socket to plain per-datagram batching.
func NewUDPBatchConfig(c *net.UDPConn, cfg BatchConfig) (*UDPBatch, error) {
	sendN, n, bufSize := clampBatch(cfg.SendMsgs, cfg.RecvMsgs, cfg.BufSize)
	withAddrs := cfg.Addrs
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &UDPBatch{
		conn:     c,
		rc:       rc,
		sendIovs: make([]syscall.Iovec, sendN),
		sendHdrs: make([]mmsghdr, sendN),
		sendCtl:  make([]cmsgSeg, sendN),
		sendRuns: make([]int, sendN),
		slabs:    slabListOf(n * bufSize),
		bufSize:  bufSize,
		recvIovs: make([]syscall.Iovec, n),
		recvHdrs: make([]mmsghdr, n),
		recvCtl:  make([]cmsgSeg, n),
		lens:     make([]int, n),
		segs:     make([]int, n),
	}
	// Probe segmentation offload support: setting a zero segment size is
	// a no-op on kernels that know the option and ENOPROTOOPT on ones
	// that don't. GRO is enabled for the socket's lifetime.
	if !cfg.NoOffload {
		ctlErr := rc.Control(func(fd uintptr) {
			if syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil {
				b.gso = true
			}
			if syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil {
				b.gro = true
			}
		})
		if ctlErr != nil {
			return nil, ctlErr
		}
	}
	for i := range b.recvHdrs {
		b.recvIovs[i].SetLen(bufSize)
		b.recvHdrs[i].hdr.Iov = &b.recvIovs[i]
		b.recvHdrs[i].hdr.Iovlen = 1
	}
	if withAddrs {
		nameSlab := make([]byte, n*sockaddrStorage)
		b.names = make([][]byte, n)
		for i := range b.names {
			b.names[i] = nameSlab[i*sockaddrStorage : (i+1)*sockaddrStorage]
			b.recvHdrs[i].hdr.Name = &b.names[i][0]
		}
	}
	b.sendFn = func(fd uintptr) bool {
		for b.sendDone < b.sendChunk {
			r1, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&b.sendHdrs[b.sendDone])), uintptr(b.sendChunk-b.sendDone), 0, 0, 0)
			switch {
			case errno == syscall.EAGAIN:
				return false
			case errno == syscall.EINTR:
				continue
			case errno != 0:
				b.sendErr = errno
				return true
			}
			b.sendDone += int(r1)
		}
		return true
	}
	b.recvFn = b.recvOnce
	return b, nil
}

// recvOnce is Recv's RawConn callback: one recvmmsg into a borrowed slab.
// rc.Read calls it when Recv starts and again after every readiness
// wake-up. A slab still held from the previous Recv serves the first
// attempt; an empty socket hands the slab back before the goroutine
// parks, and the attempt after the wake-up borrows one again.
//
//ldlint:noalloc
func (b *UDPBatch) recvOnce(fd uintptr) bool {
	if b.slab == nil {
		b.takeSlab()
	}
	for {
		r1, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&b.recvHdrs[0])), uintptr(len(b.recvHdrs)), 0, 0, 0)
		switch {
		case errno == syscall.EAGAIN:
			b.putSlab()
			return false
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			//ldlint:ignore noalloc error path that ends the Recv; an Errno is below 256, and the runtime boxes such values without allocating
			b.recvErr = errno
			return true
		}
		b.recvGot = int(r1)
		return true
	}
}

// takeSlab borrows a receive slab and points the iovecs at it.
//
//ldlint:noalloc
func (b *UDPBatch) takeSlab() {
	b.slab = b.slabs.get()
	for i := range b.recvIovs {
		b.recvIovs[i].Base = &b.slab[i*b.bufSize]
	}
}

// putSlab hands the held slab, if any, back to the free list. The iovecs
// drop their pointers into it, so a slab the full list turns away is
// garbage at once rather than pinned by a parked socket.
//
//ldlint:noalloc
func (b *UDPBatch) putSlab() {
	if b.slab == nil {
		return
	}
	for i := range b.recvIovs {
		b.recvIovs[i].Base = nil
	}
	b.slabs.put(b.slab)
	b.slab = nil
}

// Cap returns the per-call receive message capacity.
func (b *UDPBatch) Cap() int { return len(b.recvHdrs) }

// stageSeg fills control slot ctl with a UDP_SEGMENT cmsg of size seg
// and attaches it to hd.
//
//ldlint:noalloc
func stageSeg(hd *syscall.Msghdr, ctl *cmsgSeg, seg int) {
	ctl.hdr.SetLen(cmsgLenU16)
	ctl.hdr.Level = solUDP
	ctl.hdr.Type = udpSegment
	ctl.data = uint32(seg)
	hd.Control = (*byte)(unsafe.Pointer(ctl))
	hd.SetControllen(cmsgSegSpace)
}

// Send transmits up to len(msgs) datagrams on the (connected) socket in
// one or more sendmmsg calls, coalescing runs of equal-size messages
// into GSO super-datagrams when the kernel supports UDP_SEGMENT. It
// returns the number of messages fully submitted; on a per-message error,
// sent counts the messages before the failing header and err describes
// the failure. Send guarantees progress: sent < len(msgs) implies
// err != nil.
//
//ldlint:noalloc
func (b *UDPBatch) Send(msgs [][]byte) (int, error) {
	total := 0
	for total < len(msgs) {
		h, iov, mi := 0, 0, total
		for mi < len(msgs) && h < len(b.sendHdrs) && iov < len(b.sendIovs) {
			sz := len(msgs[mi])
			run := 1
			if b.gso && sz > 0 {
				maxRun := gsoMaxBytes / sz
				if maxRun > gsoMaxSegs {
					maxRun = gsoMaxSegs
				}
				for mi+run < len(msgs) && run < maxRun && iov+run < len(b.sendIovs) &&
					len(msgs[mi+run]) == sz {
					run++
				}
			}
			for k := 0; k < run; k++ {
				m := msgs[mi+k]
				if len(m) > 0 {
					b.sendIovs[iov+k].Base = &m[0]
				} else {
					b.sendIovs[iov+k].Base = nil
				}
				b.sendIovs[iov+k].SetLen(len(m))
			}
			hd := &b.sendHdrs[h].hdr
			hd.Iov = &b.sendIovs[iov]
			hd.Iovlen = uint64(run)
			// SendStaged shares these headers and sets peer addresses;
			// the connected-socket path must not inherit one.
			hd.Name = nil
			hd.Namelen = 0
			if run > 1 {
				stageSeg(hd, &b.sendCtl[h], sz)
			} else {
				hd.Control = nil
				hd.SetControllen(0)
			}
			b.sendRuns[h] = run
			h++
			iov += run
			mi += run
		}
		b.sendChunk = h
		b.sendDone = 0
		b.sendErr = nil
		err := b.rc.Write(b.sendFn)
		runtime.KeepAlive(msgs)
		for i := 0; i < b.sendDone; i++ {
			total += b.sendRuns[i]
		}
		if err == nil {
			err = b.sendErr
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Recv drains up to Cap() coalesced buffers in one recvmmsg call,
// blocking until at least one arrives. Buffer i is Msg(i) with GRO
// segment size SegSize(i); buffers are valid until the next Recv. They
// live in a slab Recv borrowed for this call (see NewUDPBatch): the next
// Recv reuses it for its first attempt and hands it back if it has to
// wait, and a Recv that fails hands it back too.
//
//ldlint:noalloc
func (b *UDPBatch) Recv() (int, error) {
	for i := range b.recvHdrs {
		if b.names != nil {
			b.recvHdrs[i].hdr.Namelen = sockaddrStorage
		}
		if b.gro {
			b.recvCtl[i].data = 0
			b.recvHdrs[i].hdr.Control = (*byte)(unsafe.Pointer(&b.recvCtl[i]))
			b.recvHdrs[i].hdr.SetControllen(cmsgSegSpace)
		}
	}
	b.recvGot = 0
	b.recvErr = nil
	err := b.rc.Read(b.recvFn)
	runtime.KeepAlive(b)
	if err == nil {
		err = b.recvErr
	}
	if err != nil {
		b.putSlab()
		return 0, err
	}
	got := b.recvGot
	for i := 0; i < got; i++ {
		b.lens[i] = int(b.recvHdrs[i].msgLen)
		b.segs[i] = 0
		if b.gro && b.recvHdrs[i].hdr.Controllen >= cmsgLenInt &&
			b.recvCtl[i].hdr.Level == solUDP && b.recvCtl[i].hdr.Type == udpGRO {
			b.segs[i] = int(int32(b.recvCtl[i].data))
		}
	}
	return got, nil
}

// Msg returns received buffer i from the last Recv. When SegSize(i) > 0
// the buffer holds several datagrams of that size (the last possibly
// shorter) coalesced by GRO.
func (b *UDPBatch) Msg(i int) []byte {
	off := i * b.bufSize
	return b.slab[off : off+b.lens[i] : off+b.bufSize]
}

// SegSize returns the GRO segment size of received buffer i, or 0 when
// the buffer is a single plain datagram.
func (b *UDPBatch) SegSize(i int) int { return b.segs[i] }

// PeerAddr decodes the sender address of received buffer i from the raw
// sockaddr recvmmsg wrote. Only valid when the UDPBatch was built with
// addresses, between a Recv and the next. IPv4-mapped IPv6 senders are
// unmapped so the result compares equal to a plain IPv4 address.
//
//ldlint:noalloc
func (b *UDPBatch) PeerAddr(i int) netip.AddrPort {
	sa := b.names[i]
	// sa_family_t is host-endian; both supported GOARCHes are
	// little-endian. The port that follows is big-endian per sockaddr_in.
	switch uint16(sa[0]) | uint16(sa[1])<<8 {
	case syscall.AF_INET:
		port := uint16(sa[2])<<8 | uint16(sa[3])
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte(sa[4:8])), port)
	case syscall.AF_INET6:
		port := uint16(sa[2])<<8 | uint16(sa[3])
		return netip.AddrPortFrom(netip.AddrFrom16([16]byte(sa[8:24])).Unmap(), port)
	}
	return netip.AddrPort{}
}

// Stage queues msg as a reply to the sender of received buffer i. msg
// must stay immutable until SendStaged returns; it typically points into
// a caller-owned slab reused per batch. Only valid when the UDPBatch was
// built with addresses, between a Recv and the next.
//
//ldlint:noalloc
func (b *UDPBatch) Stage(i int, msg []byte) {
	b.stageMsgs = append(b.stageMsgs, msg)
	b.stageIdx = append(b.stageIdx, i)
}

// SendStaged transmits every staged reply in one or more sendmmsg calls
// and resets the staging queue. Consecutive equal-size replies to the
// same received buffer (therefore the same peer) coalesce into GSO
// super-datagrams when the kernel supports UDP_SEGMENT — the natural
// case on a loopback bench, where GRO hands the server a run of
// same-peer queries whose equal-size responses stage back to back. A
// reply whose size differs from its neighbours (e.g. a truncated
// response among full answers) never joins a run: GSO segments must be
// equal-sized, so it ships as its own plain datagram, never clipped.
// Returns the number of replies fully submitted; sent < staged implies
// err != nil. SendStaged shares send state with Send — serialize them.
//
//ldlint:noalloc
func (b *UDPBatch) SendStaged() (int, error) {
	total := 0
	for total < len(b.stageMsgs) {
		h, iov, mi := 0, 0, total
		for mi < len(b.stageMsgs) && h < len(b.sendHdrs) && iov < len(b.sendIovs) {
			sz := len(b.stageMsgs[mi])
			idx := b.stageIdx[mi]
			run := 1
			if b.gso && sz > 0 {
				maxRun := gsoMaxBytes / sz
				if maxRun > gsoMaxSegs {
					maxRun = gsoMaxSegs
				}
				for mi+run < len(b.stageMsgs) && run < maxRun && iov+run < len(b.sendIovs) &&
					len(b.stageMsgs[mi+run]) == sz && b.stageIdx[mi+run] == idx {
					run++
				}
			}
			for k := 0; k < run; k++ {
				m := b.stageMsgs[mi+k]
				if len(m) > 0 {
					b.sendIovs[iov+k].Base = &m[0]
				} else {
					b.sendIovs[iov+k].Base = nil
				}
				b.sendIovs[iov+k].SetLen(len(m))
			}
			hd := &b.sendHdrs[h].hdr
			hd.Iov = &b.sendIovs[iov]
			hd.Iovlen = uint64(run)
			hd.Name = &b.names[idx][0]
			hd.Namelen = b.recvHdrs[idx].hdr.Namelen
			if run > 1 {
				stageSeg(hd, &b.sendCtl[h], sz)
			} else {
				hd.Control = nil
				hd.SetControllen(0)
			}
			b.sendRuns[h] = run
			h++
			iov += run
			mi += run
		}
		b.sendChunk = h
		b.sendDone = 0
		b.sendErr = nil
		err := b.rc.Write(b.sendFn)
		runtime.KeepAlive(b)
		for i := 0; i < b.sendDone; i++ {
			total += b.sendRuns[i]
		}
		if err == nil {
			err = b.sendErr
		}
		if err != nil {
			b.resetStage()
			return total, err
		}
	}
	b.resetStage()
	return total, nil
}

// resetStage clears the staging queue for the next batch.
//
//ldlint:noalloc
func (b *UDPBatch) resetStage() {
	b.stageMsgs = b.stageMsgs[:0]
	b.stageIdx = b.stageIdx[:0]
}
