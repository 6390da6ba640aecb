package chaostest

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"ldplayer/internal/authserver"
	"ldplayer/internal/netsim"
)

// Gateway bridges real sockets to a netsim node so the replay engine —
// which dials genuine UDP/TCP sockets — can drive traffic across an
// impaired virtual network. Each real peer (a replay socket or TCP
// connection) is assigned a virtual source port on the node; queries
// enter the simulation as datagrams toward the target nameserver and
// responses arriving at that virtual port are written back to the real
// peer.
//
// TCP responses are re-framed with the RFC 1035 length prefix under a
// per-connection lock, so datagram-level reordering inside the
// simulation can delay or permute messages but can never corrupt the
// stream framing the replay client reads.
type Gateway struct {
	node   *netsim.Node
	src    netip.Addr
	target netip.AddrPort

	udp   *net.UDPConn
	tcpLn net.Listener

	mu       sync.Mutex
	nextPort uint16
	udpPeers map[uint16]*net.UDPAddr
	udpPorts map[string]uint16 // real peer -> vport, for socket affinity
	tcpConns map[uint16]*gwConn

	closed atomic.Bool
	wg     sync.WaitGroup
}

// gwConn is one accepted TCP connection; mu serializes response frames.
type gwConn struct {
	conn net.Conn
	mu   sync.Mutex
}

// NewGateway listens on loopback UDP and TCP and installs itself as
// node's datagram handler. Queries are emitted from src toward target
// (so the node's egress proxy captures them like any port-53 traffic).
func NewGateway(node *netsim.Node, src netip.Addr, target netip.AddrPort) (*Gateway, error) {
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	// A replay burst can outrun the read loop; a deep kernel buffer keeps
	// loopback loss out of the seeded fault model (best effort — the OS
	// may cap it lower).
	_ = udp.SetReadBuffer(4 << 20)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		udp.Close()
		return nil, err
	}
	g := &Gateway{
		node:     node,
		src:      src,
		target:   target,
		udp:      udp,
		tcpLn:    ln,
		nextPort: 20000,
		udpPeers: make(map[uint16]*net.UDPAddr),
		udpPorts: make(map[string]uint16),
		tcpConns: make(map[uint16]*gwConn),
	}
	node.Handle(g.deliver)
	g.wg.Add(2)
	go g.readUDP()
	go g.acceptTCP()
	return g, nil
}

// UDPAddr returns the real UDP listen address ("host:port").
func (g *Gateway) UDPAddr() string { return g.udp.LocalAddr().String() }

// TCPAddr returns the real TCP listen address ("host:port").
func (g *Gateway) TCPAddr() string { return g.tcpLn.Addr().String() }

// Close tears down the listeners and waits for the pump goroutines.
func (g *Gateway) Close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	g.udp.Close()
	g.tcpLn.Close()
	g.mu.Lock()
	//ldlint:ignore determinism close-all teardown; order is irrelevant and no fault decision is taken
	for _, c := range g.tcpConns {
		c.conn.Close()
	}
	g.mu.Unlock()
	g.wg.Wait()
}

// allocPort reserves an unused virtual source port. Caller holds g.mu.
func (g *Gateway) allocPort() uint16 {
	for {
		g.nextPort++
		if g.nextPort < 20000 {
			g.nextPort = 20000
		}
		p := g.nextPort
		if _, u := g.udpPeers[p]; u {
			continue
		}
		if _, t := g.tcpConns[p]; t {
			continue
		}
		return p
	}
}

// deliver routes a datagram arriving at the node back to the real peer
// that owns its destination port.
func (g *Gateway) deliver(d netsim.Datagram) {
	port := d.Dst.Port()
	g.mu.Lock()
	peer := g.udpPeers[port]
	tc := g.tcpConns[port]
	g.mu.Unlock()
	switch {
	case peer != nil:
		_, _ = g.udp.WriteToUDP(d.Payload, peer)
	case tc != nil:
		tc.mu.Lock()
		_ = authserver.WriteTCPMessage(tc.conn, d.Payload)
		tc.mu.Unlock()
	}
}

func (g *Gateway) readUDP() {
	defer g.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := g.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		key := raddr.String()
		g.mu.Lock()
		vport, ok := g.udpPorts[key]
		if !ok {
			vport = g.allocPort()
			g.udpPorts[key] = vport
			g.udpPeers[vport] = raddr
		}
		g.mu.Unlock()
		g.node.Send(netsim.Datagram{
			Src:     netip.AddrPortFrom(g.src, vport),
			Dst:     g.target,
			Payload: append([]byte(nil), buf[:n]...),
		})
	}
}

func (g *Gateway) acceptTCP() {
	defer g.wg.Done()
	for {
		conn, err := g.tcpLn.Accept()
		if err != nil {
			return
		}
		tc := &gwConn{conn: conn}
		g.mu.Lock()
		vport := g.allocPort()
		g.tcpConns[vport] = tc
		g.mu.Unlock()
		g.wg.Add(1)
		go g.readTCP(tc, vport)
	}
}

func (g *Gateway) readTCP(tc *gwConn, vport uint16) {
	defer g.wg.Done()
	defer func() {
		g.mu.Lock()
		delete(g.tcpConns, vport)
		g.mu.Unlock()
		tc.conn.Close()
	}()
	for {
		// A fresh buffer per message: the datagram keeps its payload.
		msg, err := authserver.ReadTCPMessage(tc.conn, new([]byte))
		if err != nil {
			return
		}
		g.node.Send(netsim.Datagram{
			Src:     netip.AddrPortFrom(g.src, vport),
			Dst:     g.target,
			Payload: msg,
		})
	}
}
