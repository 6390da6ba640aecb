// Package netio provides batched UDP datagram I/O: many messages per
// syscall via sendmmsg/recvmmsg on Linux, with a portable loop fallback
// elsewhere. At replay rates approaching the paper's ~87k queries/s —
// and well past it — per-datagram syscalls dominate the client's CPU
// budget; batching turns a burst of due queries into one kernel crossing.
//
// A UDPBatch wraps one *net.UDPConn with preallocated message headers
// and iovecs, so steady-state Send/Recv perform no allocation. On Linux
// its receive buffers are borrowed from a free list shared by every
// batch with the same buffer geometry, for as long as a reader reads: a
// socket whose reader is parked holds none. The same type serves both ends of the pipeline: the replay
// client's connected sockets (Send/Recv) and the meta-DNS-server's
// unconnected ones (Recv with peer addresses, Stage a reply against the
// buffer it answers, SendStaged).
//
// All methods are safe for the usual one-reader/one-writer socket
// discipline: Recv, Stage and SendStaged read the receive state and must
// be called from one goroutine; Send may run from another, but shares
// send state with SendStaged, so a socket uses one or the other.
package netio

// MaxBatch is the largest per-call message count a UDPBatch supports;
// constructors clamp to it.
const MaxBatch = 1024

// BatchConfig shapes a UDPBatch. The zero value of each field selects
// the same defaults as NewUDPBatch.
type BatchConfig struct {
	// SendMsgs and RecvMsgs bound the messages staged per send call and
	// the buffers filled per receive call.
	SendMsgs int
	RecvMsgs int
	// BufSize is the per-receive-buffer size. Size for up to 64 GRO
	// segments per buffer when peers may send coalesced.
	BufSize int
	// Addrs enables peer-address capture (required for PeerAddr and
	// Stage/SendStaged on unconnected sockets).
	Addrs bool
	// NoOffload disables UDP GSO send coalescing and GRO receive even
	// when the kernel supports them, degrading to plain per-datagram
	// sendmmsg/recvmmsg — the shape a kernel that refuses the socket
	// options gives anyway. For A/B measurement and fault isolation.
	NoOffload bool
}

// clampBatch normalizes a requested batch shape. Send and receive
// capacities are independent so a sender can batch wide without paying
// for receive buffers it will never fill.
func clampBatch(sendN, recvN, bufSize int) (int, int, int) {
	clamp := func(n int) int {
		if n <= 0 {
			return 1
		}
		if n > MaxBatch {
			return MaxBatch
		}
		return n
	}
	if bufSize <= 0 {
		bufSize = 2048
	}
	return clamp(sendN), clamp(recvN), bufSize
}
