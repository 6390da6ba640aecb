// Package netsim is an in-process virtual IP network. It stands in for the
// DETER testbed topology, the TUN devices, and the iptables mangle rules
// of the paper's deployment (§2.4, Figure 2): nodes own IP addresses,
// links impose round-trip latency, and per-node egress filters divert
// matching datagrams to proxy hooks exactly the way port-based routing
// diverts packets to a TUN interface.
//
// Datagrams whose destination no node owns are dropped and counted — the
// in-simulation equivalent of "leaked packets are non-routable and
// dropped" — so replay bugs surface as drop counts, never as traffic to
// the real Internet.
package netsim

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/vclock"
)

// Datagram is a raw UDP-like packet as a proxy would read it from a TUN
// device: addresses, ports, and payload.
type Datagram struct {
	Src     netip.AddrPort
	Dst     netip.AddrPort
	Payload []byte
}

// String returns a tcpdump-ish one-liner for logs and tests.
func (d Datagram) String() string {
	return fmt.Sprintf("%v > %v: %d bytes", d.Src, d.Dst, len(d.Payload))
}

// Clone deep-copies the datagram so filters may mutate it safely.
func (d Datagram) Clone() Datagram {
	d.Payload = append([]byte(nil), d.Payload...)
	return d
}

// Handler consumes datagrams delivered to a node.
type Handler func(Datagram)

// Filter inspects an egress datagram. Returning true diverts the packet
// (it is NOT delivered); the filter owns it from then on, typically
// rewriting addresses and re-injecting via Network.Inject. This is the
// TUN-redirect analogue.
type Filter func(Datagram) (diverted bool)

// Network is a virtual packet network. The zero value is not usable; call
// New.
type Network struct {
	mu    sync.RWMutex
	nodes map[netip.Addr]*Node
	// linkRTT maps unordered address pairs to their round-trip time.
	linkRTT map[[2]netip.Addr]time.Duration
	// defaultRTT applies to pairs without an explicit link entry.
	defaultRTT time.Duration
	// impairers maps unordered address pairs to their fault model;
	// defaultImpairer (may be nil) applies to pairs without an entry.
	impairers       map[[2]netip.Addr]*impairer
	defaultImpairer *impairer

	// clock schedules link-latency deliveries. The real clock by default;
	// a vclock.SimClock turns the network into a discrete-event
	// simulation where every delivery runs inline on the driving
	// goroutine, in timestamp order.
	clock vclock.Clock

	dropped   atomic.Int64
	delivered atomic.Int64
	// inFlight counts datagrams scheduled (in a latency timer or a deliver
	// goroutine) but not yet handed to a handler — the virtual link queue.
	inFlight atomic.Int64

	wg     sync.WaitGroup
	closed atomic.Bool
}

// Instrument registers the network's delivery counters and the virtual
// link-queue depth gauge with reg. Reads happen at scrape time; the
// packet path pays only the atomic adds it already performs.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("netsim_delivered_total", "", "datagrams delivered to a handler", n.delivered.Load)
	reg.CounterFunc("netsim_dropped_total", "", "datagrams dropped (no route or no handler)", n.dropped.Load)
	reg.GaugeFunc("netsim_queue_depth", "", "datagrams in flight on virtual links", n.inFlight.Load)
	reg.CounterFunc("netsim_impair_offered_total", "", "datagrams presented to link impairers", func() int64 {
		return n.ImpairStats().Offered
	})
	reg.CounterFunc("netsim_impair_dropped_total", "", "datagrams dropped by link impairment", func() int64 {
		return n.ImpairStats().Dropped
	})
	reg.CounterFunc("netsim_impair_duplicated_total", "", "datagrams duplicated by link impairment", func() int64 {
		return n.ImpairStats().Duplicated
	})
	reg.CounterFunc("netsim_impair_reordered_total", "", "datagram copies held back by reorder impairment", func() int64 {
		return n.ImpairStats().Reordered
	})
	reg.CounterFunc("netsim_impair_corrupted_total", "", "datagram copies corrupted by link impairment", func() int64 {
		return n.ImpairStats().Corrupted
	})
}

// InFlight returns the number of datagrams currently traversing virtual
// links (scheduled but not yet delivered or dropped).
func (n *Network) InFlight() int64 { return n.inFlight.Load() }

// New creates an empty network with the given default round-trip time
// between any two nodes (0 = immediate delivery). Deliveries are timed
// by the wall clock; use NewWithClock for simulated time.
func New(defaultRTT time.Duration) *Network {
	return NewWithClock(defaultRTT, nil)
}

// NewWithClock is New with an injected clock (nil = real time). Under a
// *vclock.SimClock every delivery — including zero-delay ones — becomes
// a scheduled event fired synchronously by the clock's driver, so a
// seeded topology plus impairment set replays bit-identically.
func NewWithClock(defaultRTT time.Duration, clk vclock.Clock) *Network {
	return &Network{
		nodes:      make(map[netip.Addr]*Node),
		linkRTT:    make(map[[2]netip.Addr]time.Duration),
		impairers:  make(map[[2]netip.Addr]*impairer),
		defaultRTT: defaultRTT,
		clock:      vclock.Or(clk),
	}
}

// Clock returns the clock timing this network's deliveries.
func (n *Network) Clock() vclock.Clock { return n.clock }

// Node is an attachment point owning one or more addresses.
type Node struct {
	net   *Network
	name  string
	addrs []netip.Addr

	mu      sync.RWMutex
	handler Handler
	filters []Filter
}

// AddNode attaches a node owning addrs. Adding an address that is already
// owned is an error: address ownership is how routing works.
func (n *Network) AddNode(name string, addrs ...netip.Addr) (*Node, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("netsim: node %q needs at least one address", name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range addrs {
		if _, taken := n.nodes[a]; taken {
			return nil, fmt.Errorf("netsim: address %v already owned", a)
		}
	}
	node := &Node{net: n, name: name, addrs: addrs}
	for _, a := range addrs {
		n.nodes[a] = node
	}
	return node, nil
}

// AddAddrs grants node ownership of additional addresses. The meta-DNS
// deployment uses this to give the authoritative proxy every nameserver
// address harvested from the trace.
func (n *Network) AddAddrs(node *Node, addrs ...netip.Addr) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range addrs {
		if owner, taken := n.nodes[a]; taken && owner != node {
			return fmt.Errorf("netsim: address %v already owned by %s", a, owner.name)
		}
	}
	for _, a := range addrs {
		n.nodes[a] = node
		node.addrs = append(node.addrs, a)
	}
	return nil
}

// SetLinkRTT sets the round-trip time between two addresses (order
// irrelevant), overriding the default.
func (n *Network) SetLinkRTT(a, b netip.Addr, rtt time.Duration) {
	k := linkKey(a, b)
	n.mu.Lock()
	n.linkRTT[k] = rtt
	n.mu.Unlock()
}

func linkKey(a, b netip.Addr) [2]netip.Addr {
	if b.Less(a) {
		a, b = b, a
	}
	return [2]netip.Addr{a, b}
}

func (n *Network) rttBetween(a, b netip.Addr) time.Duration {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if rtt, ok := n.linkRTT[linkKey(a, b)]; ok {
		return rtt
	}
	return n.defaultRTT
}

// SetLinkImpairment installs a fault model on the link between two
// addresses (order irrelevant), overriding the network default. A zero
// Impairment restores the perfect link. Returns imp.Validate()'s error.
func (n *Network) SetLinkImpairment(a, b netip.Addr, imp Impairment) error {
	if err := imp.Validate(); err != nil {
		return err
	}
	k := linkKey(a, b)
	n.mu.Lock()
	defer n.mu.Unlock()
	if imp.IsZero() {
		delete(n.impairers, k)
		return nil
	}
	n.impairers[k] = newImpairer(imp)
	return nil
}

// SetDefaultImpairment installs a fault model on every link without an
// explicit SetLinkImpairment entry. A zero Impairment restores perfect
// default links.
func (n *Network) SetDefaultImpairment(imp Impairment) error {
	if err := imp.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if imp.IsZero() {
		n.defaultImpairer = nil
		return nil
	}
	n.defaultImpairer = newImpairer(imp)
	return nil
}

// impairerFor returns the impairer governing the (a,b) link, or nil.
func (n *Network) impairerFor(a, b netip.Addr) *impairer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if ip, ok := n.impairers[linkKey(a, b)]; ok {
		return ip
	}
	return n.defaultImpairer
}

// ImpairStats aggregates impairment counters across every impaired link
// (including the default impairer).
func (n *Network) ImpairStats() ImpairStats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var s ImpairStats
	//ldlint:ignore determinism stat aggregation is commutative; iteration order never feeds the fault sequence
	for _, ip := range n.impairers {
		s = s.add(ip.stats())
	}
	if n.defaultImpairer != nil {
		s = s.add(n.defaultImpairer.stats())
	}
	return s
}

// LinkImpairStats returns the impairment counters of the (a,b) link's
// governing impairer (the default impairer when no per-link entry exists).
func (n *Network) LinkImpairStats(a, b netip.Addr) ImpairStats {
	if ip := n.impairerFor(a, b); ip != nil {
		return ip.stats()
	}
	return ImpairStats{}
}

// Dropped returns the number of datagrams dropped for lack of a route.
func (n *Network) Dropped() int64 { return n.dropped.Load() }

// Delivered returns the number of datagrams delivered to a handler.
func (n *Network) Delivered() int64 { return n.delivered.Load() }

// Close stops accepting traffic and waits for in-flight deliveries.
func (n *Network) Close() {
	n.closed.Store(true)
	n.wg.Wait()
}

// Handle installs the node's delivery handler. Datagrams arriving before a
// handler is installed are dropped.
func (nd *Node) Handle(h Handler) {
	nd.mu.Lock()
	nd.handler = h
	nd.mu.Unlock()
}

// AddEgressFilter appends an egress filter; filters run in order and the
// first to divert wins.
func (nd *Node) AddEgressFilter(f Filter) {
	nd.mu.Lock()
	nd.filters = append(nd.filters, f)
	nd.mu.Unlock()
}

// Name returns the node's human-readable name.
func (nd *Node) Name() string { return nd.name }

// Addrs returns the addresses the node owns.
func (nd *Node) Addrs() []netip.Addr {
	nd.mu.RLock()
	defer nd.mu.RUnlock()
	return append([]netip.Addr(nil), nd.addrs...)
}

// Send transmits d from the node, running egress filters first. It is the
// analogue of a sendto(2) that iptables may divert to a TUN device.
func (nd *Node) Send(d Datagram) {
	nd.mu.RLock()
	filters := nd.filters
	nd.mu.RUnlock()
	for _, f := range filters {
		if f(d) {
			return
		}
	}
	nd.net.Inject(d)
}

// Inject delivers d to the owner of d.Dst, bypassing egress filters. The
// proxies use this to re-insert rewritten packets. The link's impairment
// model (if any) decides the datagram's fate: drop, duplication, extra
// delay, or payload corruption.
func (n *Network) Inject(d Datagram) {
	if n.closed.Load() {
		return
	}
	n.mu.RLock()
	dst, ok := n.nodes[d.Dst.Addr()]
	n.mu.RUnlock()
	if !ok {
		n.dropped.Add(1)
		return
	}
	// One-way latency is half the round trip.
	oneWay := n.rttBetween(d.Src.Addr(), d.Dst.Addr()) / 2
	ip := n.impairerFor(d.Src.Addr(), d.Dst.Addr())
	if ip == nil {
		n.schedule(dst, d, oneWay)
		return
	}
	drop, dels, copies := ip.decide(len(d.Payload), oneWay)
	if drop {
		return
	}
	for i := 0; i < copies; i++ {
		cp := d
		if at := dels[i].corruptAt; at >= 0 {
			cp.Payload = corruptPayload(d.Payload, at)
		}
		n.schedule(dst, cp, oneWay+dels[i].extraDelay)
	}
}

// schedule arranges delivery of d to dst after delay.
func (n *Network) schedule(dst *Node, d Datagram, delay time.Duration) {
	n.wg.Add(1)
	n.inFlight.Add(1)
	deliver := func() {
		defer n.wg.Done()
		defer n.inFlight.Add(-1)
		dst.mu.RLock()
		h := dst.handler
		dst.mu.RUnlock()
		if h == nil {
			n.dropped.Add(1)
			return
		}
		// Counted once the handler has returned, so a reader that sees
		// Delivered()+Dropped() reach the number sent also sees every
		// handler's effects.
		h(d)
		n.delivered.Add(1)
	}
	if delay <= 0 {
		if vclock.IsReal(n.clock) {
			// Real-time fast path: zero-latency links skip the timer
			// queue entirely.
			go deliver()
			return
		}
		// Simulated time: even "immediate" delivery is an event, so it
		// fires on the driver in deterministic order.
		delay = 0
	}
	n.clock.AfterFunc(delay, deliver)
}
