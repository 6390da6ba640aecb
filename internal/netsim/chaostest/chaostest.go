// Package chaostest is a deterministic fault-injection harness for the
// replay pipeline. A Scenario stands up the full Figure-2 topology inside
// one process — meta-DNS engine, both OQDA proxies, a seeded-impairment
// virtual network, and a real-socket gateway — then drives the actual
// replay engine (real UDP/TCP sockets, real retransmission timers) across
// it and returns the replay statistics next to the network's impairment
// accounting so tests can assert analytic invariants: with per-attempt
// loss p and r retransmissions the answered fraction approaches
// 1 − p^(r+1); reordering may permute responses but can never corrupt
// TCP framing; total loss must terminate at the drain deadline with every
// query accounted unanswered.
//
// Determinism: all impairment decisions flow from the Scenario's seeded
// Impairments, so a scenario's fault pattern is a pure function of seed
// and packet arrival order. Arrival order is exactly reproducible for
// sequential load and statistically stable under the replay engine's
// concurrency — the invariants asserted here hold for every seed.
package chaostest

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/netsim"
	"ldplayer/internal/proxy"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
	"ldplayer/internal/zone"
)

// Topology addresses: the replay client node, the meta-DNS node, and the
// public nameserver address the traces query (the OQDA identity).
var (
	ClientAddr = netip.MustParseAddr("10.1.0.1")
	MetaAddr   = netip.MustParseAddr("10.2.0.1")
	ServerAddr = netip.MustParseAddr("192.0.2.53")
)

// Scenario describes one chaos run.
type Scenario struct {
	// Queries is the trace length. Default 50.
	Queries int
	// Sources is the number of distinct original source addresses the
	// trace cycles through (each gets its own replay socket). Default 4.
	Sources int
	// Gap spaces consecutive trace entries. Default 0 (as fast as the
	// replay clock allows).
	Gap time.Duration
	// Protocol selects UDP or TCP transport for every entry.
	Protocol trace.Protocol
	// RTT is the virtual round-trip time between any two nodes.
	RTT time.Duration

	// QueryImpairment is installed on the query path — the link the
	// OQDA-rewritten queries traverse toward the meta server. Each UDP
	// transmission attempt crosses it independently, which is what makes
	// the 1−p^(r+1) bound exact.
	QueryImpairment netsim.Impairment
	// ResponseImpairment is installed on the response path back to the
	// client node.
	ResponseImpairment netsim.Impairment

	// Replay seeds the engine configuration; Run fills in the gateway
	// targets. Zero-value fields keep the engine defaults.
	Replay replay.Config
}

// Result pairs the replay statistics with the network-side accounting.
type Result struct {
	Stats *replay.Stats
	// QueryLink and ResponseLink are the per-link impairment counters.
	QueryLink    netsim.ImpairStats
	ResponseLink netsim.ImpairStats
	// RouteDrops counts datagrams the virtual network dropped for lack
	// of a route — always 0 in a correctly wired scenario.
	RouteDrops int64
}

// zoneText answers everything under example.com via a wildcard, like the
// synthetic-replay setup of the paper's testbed experiments.
const zoneText = `
example.com.	3600	IN	SOA	ns1.example.com. host. 1 7200 3600 1209600 300
example.com.	3600	IN	NS	ns1.example.com.
ns1.example.com.	3600	IN	A	192.0.2.1
*.example.com.	300	IN	A	192.0.2.81
`

// BuildTrace constructs the scenario's query stream: unique query names
// and message IDs, cycling over s.Sources original source addresses.
func BuildTrace(s Scenario) ([]trace.Entry, error) {
	base := time.Unix(1700000000, 0)
	out := make([]trace.Entry, s.Queries)
	for i := range out {
		m := dnswire.NewQuery(uint16(i+1), fmt.Sprintf("q%d.example.com.", i), dnswire.TypeA)
		wire, err := m.Pack(nil)
		if err != nil {
			return nil, err
		}
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, byte(i % s.Sources >> 8), byte(i % s.Sources)}), 5353)
		out[i] = trace.Entry{
			Time:     base.Add(time.Duration(i) * s.Gap),
			Src:      src,
			Dst:      netip.AddrPortFrom(ServerAddr, 53),
			Protocol: s.Protocol,
			Message:  wire,
		}
	}
	return out, nil
}

// Run executes the scenario and returns the paired accounting.
func Run(ctx context.Context, s Scenario) (Result, error) {
	if s.Queries <= 0 {
		s.Queries = 50
	}
	if s.Sources <= 0 {
		s.Sources = 4
	}

	n := netsim.New(s.RTT)
	defer n.Close()
	client, err := n.AddNode("replay-client", ClientAddr)
	if err != nil {
		return Result{}, err
	}
	meta, err := n.AddNode("meta-dns", MetaAddr)
	if err != nil {
		return Result{}, err
	}

	// Figure-2 proxy pair: queries leaving the client toward the public
	// nameserver are rewritten to the meta server; responses leaving the
	// meta server are rewritten back to the client.
	clientProxy := proxy.Attach(client, n, proxy.CaptureQueries, MetaAddr, proxy.Options{})
	defer clientProxy.Close()
	authProxy := proxy.Attach(meta, n, proxy.CaptureResponses, ClientAddr, proxy.Options{})
	defer authProxy.Close()

	z, err := zone.Parse(strings.NewReader(zoneText), "example.com.")
	if err != nil {
		return Result{}, err
	}
	engine := authserver.NewEngine()
	if err := engine.AddView(&authserver.View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
		return Result{}, err
	}
	authserver.AttachNetsim(engine, meta)

	// Post-rewrite link identities: queries traverse (ServerAddr, MetaAddr),
	// responses traverse (ServerAddr, ClientAddr).
	if err := n.SetLinkImpairment(ServerAddr, MetaAddr, s.QueryImpairment); err != nil {
		return Result{}, err
	}
	if err := n.SetLinkImpairment(ServerAddr, ClientAddr, s.ResponseImpairment); err != nil {
		return Result{}, err
	}

	gw, err := NewGateway(client, ClientAddr, netip.AddrPortFrom(ServerAddr, 53))
	if err != nil {
		return Result{}, err
	}
	defer gw.Close()

	cfg := s.Replay
	cfg.UDPTarget = gw.UDPAddr()
	cfg.TCPTarget = gw.TCPAddr()
	en, err := replay.New(cfg)
	if err != nil {
		return Result{}, err
	}

	entries, err := BuildTrace(s)
	if err != nil {
		return Result{}, err
	}
	st, err := en.Replay(ctx, trace.NewSliceReader(entries))
	if err != nil {
		return Result{}, err
	}
	return Result{
		Stats:        st,
		QueryLink:    n.LinkImpairStats(ServerAddr, MetaAddr),
		ResponseLink: n.LinkImpairStats(ServerAddr, ClientAddr),
		RouteDrops:   n.Dropped(),
	}, nil
}
