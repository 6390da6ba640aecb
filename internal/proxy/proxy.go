// Package proxy implements the server proxies of §2.4 (Figure 2). Both the
// recursive proxy and the authoritative proxy perform the same address
// transformation on every captured packet:
//
//	src address ← original destination address (the OQDA rule)
//	dst address ← the configured peer (the server at the other end)
//
// with ports preserved positionally. Applied at the recursive side to all
// queries (destination port 53) this makes the query's original
// destination — the public nameserver address, the only zone identifier —
// arrive as the *source* the meta-DNS-server's split-horizon views match
// on. Applied at the authoritative side to all responses (source port 53)
// it restores a reply that appears to come from the address the recursive
// queried, so the recursive accepts it without knowing any manipulation
// happened.
//
// The paper reads packets from a TUN device with one reader thread and a
// pool of rewrite workers; here the TUN is a netsim egress filter and the
// pool is a channel-fed goroutine group.
package proxy

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"ldplayer/internal/netsim"
	"ldplayer/internal/obs"
)

// Rewrite applies the OQDA transformation toward peer.
func Rewrite(d netsim.Datagram, peer netip.Addr) netsim.Datagram {
	return netsim.Datagram{
		Src:     netip.AddrPortFrom(d.Dst.Addr(), d.Src.Port()),
		Dst:     netip.AddrPortFrom(peer, d.Dst.Port()),
		Payload: d.Payload,
	}
}

// Direction selects which packets a proxy captures.
type Direction int

// Capture directions.
const (
	// CaptureQueries diverts packets with destination port 53 (the
	// recursive proxy's iptables rule).
	CaptureQueries Direction = iota
	// CaptureResponses diverts packets with source port 53 (the
	// authoritative proxy's rule).
	CaptureResponses
)

// Stats counts proxy activity. Captured = Forwarded + Dropped + in-queue,
// so a healthy idle proxy shows all three at their final values; Dropped
// growing while Forwarded stalls means the worker pool or the peer is the
// bottleneck, not the capture rule.
type Stats struct {
	Captured  int64
	Forwarded int64
	Dropped   int64
}

// Proxy captures matching egress packets on a node, rewrites them, and
// re-injects them toward the peer. Close drains the worker pool.
type Proxy struct {
	dir     Direction
	peer    netip.Addr
	network *netsim.Network

	inline bool
	queue  chan netsim.Datagram
	wg     sync.WaitGroup

	captured  atomic.Int64
	forwarded atomic.Int64
	dropped   atomic.Int64

	closeOnce sync.Once
}

// Options configures a Proxy.
type Options struct {
	// Workers is the rewrite worker-pool size; it mirrors the paper's
	// multi-threaded proxy. Default 4.
	Workers int
	// QueueDepth bounds the reader-to-worker queue. Default 1024.
	QueueDepth int
	// Inline rewrites and re-injects captured packets synchronously on
	// the capturing goroutine — no queue, no workers. Virtual-time
	// scenarios need this: a worker pool's pickup order depends on the
	// Go scheduler, which would break bit-reproducibility. Real-time
	// paths should keep the pool; inline forwarding stalls the sender's
	// packet path, the saturated-TUN condition Workers exists to avoid.
	Inline bool
}

// Attach creates a proxy capturing dir packets leaving node, rewriting
// them toward peer, and re-injecting them into network.
func Attach(node *netsim.Node, network *netsim.Network, dir Direction, peer netip.Addr, opts Options) *Proxy {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	p := &Proxy{
		dir:     dir,
		peer:    peer,
		network: network,
		inline:  opts.Inline,
	}
	if !p.inline {
		p.queue = make(chan netsim.Datagram, opts.QueueDepth)
		for i := 0; i < opts.Workers; i++ {
			p.wg.Add(1)
			go p.worker()
		}
	}
	node.AddEgressFilter(p.capture)
	return p
}

// capture is the egress filter: the analogue of the mangle-table rule that
// marks packets for the TUN device.
func (p *Proxy) capture(d netsim.Datagram) bool {
	match := false
	switch p.dir {
	case CaptureQueries:
		match = d.Dst.Port() == 53
	case CaptureResponses:
		match = d.Src.Port() == 53
	}
	if !match {
		return false
	}
	p.captured.Add(1)
	if p.inline {
		p.forward(d)
		return true
	}
	// A full queue drops the packet, exactly as a saturated TUN would;
	// blocking here would stall the sender's packet path.
	select {
	case p.queue <- d:
	default:
		p.dropped.Add(1)
	}
	return true
}

// forward rewrites and re-injects one captured packet.
func (p *Proxy) forward(d netsim.Datagram) {
	// An invalid peer leaves a rewrite nowhere to go.
	if !p.peer.IsValid() {
		p.dropped.Add(1)
		return
	}
	p.network.Inject(Rewrite(d, p.peer))
	p.forwarded.Add(1)
}

func (p *Proxy) worker() {
	defer p.wg.Done()
	for d := range p.queue {
		p.forward(d)
	}
}

// Stats returns capture, forward, and drop counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Captured:  p.captured.Load(),
		Forwarded: p.forwarded.Load(),
		Dropped:   p.dropped.Load(),
	}
}

// Instrument registers the proxy's counters and queue-depth gauge with
// reg, labelled by capture direction. Reads happen at scrape time.
func (p *Proxy) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	dir := "queries"
	if p.dir == CaptureResponses {
		dir = "responses"
	}
	labels := fmt.Sprintf("direction=%q", dir)
	reg.CounterFunc("proxy_captured_total", labels, "packets diverted by the capture rule", p.captured.Load)
	reg.CounterFunc("proxy_forwarded_total", labels, "packets rewritten and re-injected", p.forwarded.Load)
	reg.CounterFunc("proxy_dropped_total", labels, "packets discarded (full queue or invalid peer)", p.dropped.Load)
	reg.GaugeFunc("proxy_queue_depth", labels, "packets waiting for a rewrite worker", func() int64 {
		return int64(len(p.queue))
	})
}

// Close stops the workers after draining queued packets. Inline proxies
// have neither and Close is a no-op.
func (p *Proxy) Close() {
	if p.inline {
		return
	}
	p.closeOnce.Do(func() {
		close(p.queue)
	})
	p.wg.Wait()
}
