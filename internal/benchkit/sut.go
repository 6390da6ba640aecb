package benchkit

// Every call into the system under test lives in this file, through the
// narrowest public surface that does the job: the constructors and fields
// cmd/ldplayer and cmd/metadns use, nothing the shipped commands cannot
// reach. API drift therefore breaks this one file, and the smoke tests in
// this package catch it in tier-1. The rest of the package sees the
// system only as closures and values returned from here, plus the
// trace.Entry type and the trace.Reader/BatchReader interfaces, which the
// gate has to implement to sit in front of the engine at all.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/hierarchy"
	"ldplayer/internal/mutate"
	"ldplayer/internal/netio"
	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
	"ldplayer/internal/traceg"
	"ldplayer/internal/zone"
)

// ---- inputs: traceg, dnswire, mutate, trace ----

// sldNames returns the 549 second-level domains the hierarchy hosts (the
// paper's Rec-17 zone count), drawn from seed.
func sldNames(seed int64) ([]string, error) {
	g, err := traceg.Recursive(traceg.RecursiveConfig{Duration: time.Second, Seed: seed})
	if err != nil {
		return nil, err
	}
	return g.Zones(), nil
}

// brootSource streams a B-Root-like trace: 1000 sources of which the busy
// 1% carry heavyShare of the load (0 = the generator's default, 75%), the
// generator's default junk/TLD name mix, and the mid-2016 DO share. The
// duration leaves the count limit the caller applies, not the generator's
// clock, to end the trace.
func brootSource(seed int64, rate float64, entries int, heavyShare float64) (trace.Reader, error) {
	return traceg.BRoot(traceg.BRootConfig{
		Duration:   time.Duration(2 * float64(entries) / rate * float64(time.Second)),
		MedianRate: rate,
		Clients:    1000,
		HeavyShare: heavyShare,
		DOFraction: 0.723,
		Seed:       seed,
	})
}

// packQuery packs an A query for name with EDNS and DO set; the caller
// rewrites the ID.
func packQuery(name string) ([]byte, error) {
	m := dnswire.NewQuery(0, name, dnswire.TypeA)
	m.Edns = &dnswire.EDNS{UDPSize: dnswire.DefaultEDNSSize, DO: true}
	return m.Pack(nil)
}

// forceTCP is the paper's §5 what-if mutation.
func forceTCP() func(*trace.Entry) error {
	return mutate.NewPipeline(mutate.SetProtocol(trace.TCP)).Apply
}

// scaleTime stretches every offset from the first entry by factor.
func scaleTime(factor float64) func(*trace.Entry) error {
	return mutate.NewPipeline(mutate.TimeScale(factor)).Apply
}

// blockSink encodes entries as an LDTRC02 block file on w; finish cuts
// the last block and writes the index.
func blockSink(w io.Writer) (write func(trace.Entry) error, finish func() error) {
	bw := trace.NewBlockWriter(w)
	return bw.Write, bw.Close
}

// openBlockFile opens path through the mmap block reader and reports its
// entry count. The caller closes the reader.
func openBlockFile(path string) (interface {
	trace.BatchReader
	io.Closer
}, int, error) {
	br, err := trace.OpenBlockFile(path)
	if err != nil {
		return nil, 0, err
	}
	return br, int(br.Entries()), nil
}

func newSliceReader(entries []trace.Entry) *trace.SliceReader { return trace.NewSliceReader(entries) }

// ---- server: hierarchy, authserver, obs ----

type hierarchyT = *hierarchy.Hierarchy

func buildHierarchy(slds []string) (hierarchyT, error) {
	return hierarchy.Build(slds, hierarchy.Options{})
}

// newAuthEngine hosts every zone of h in one default view, as metadns does
// when no -view clause is given.
func newAuthEngine(h *hierarchy.Hierarchy) (*authserver.Engine, error) {
	var all []*zone.Zone
	for _, z := range h.Zones() {
		all = append(all, z)
	}
	e := authserver.NewEngine()
	if err := e.AddView(&authserver.View{Name: "default", Zones: all}); err != nil {
		return nil, err
	}
	return e, nil
}

// Server is the meta-DNS-server under test with metadns's flag defaults:
// batched datapath, one SO_REUSEPORT socket per worker, four workers,
// offload on, UDP and TCP on loopback.
type Server struct {
	Engine *authserver.Engine
	srv    *authserver.Server
	reg    *obs.Registry
	tracer *obs.Tracer
}

// startServer starts the server on ephemeral loopback ports. instrument
// attaches the registry and tracer `metadns -obs-listen` would, at the
// default sampling.
func startServer(h *hierarchy.Hierarchy, instrument bool) (*Server, error) {
	e, err := newAuthEngine(h)
	if err != nil {
		return nil, err
	}
	s := &Server{Engine: e}
	if instrument {
		s.reg = obs.NewRegistry()
		s.tracer = obs.NewTracer(1024, 1)
		e.Instrument(s.reg, s.tracer, authserver.DefaultObsSampleEvery)
	}
	s.srv = &authserver.Server{
		Engine:      e,
		IdleTimeout: authserver.DefaultIdleTimeout,
		UDPWorkers:  4,
		ReusePort:   true,
		Batch:       true,
		BatchSize:   authserver.DefaultUDPBatchSize,
	}
	if err := s.srv.Start("127.0.0.1:0", "127.0.0.1:0", ""); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) UDPAddr() string              { return s.srv.UDPAddr().String() }
func (s *Server) TCPAddr() string              { return s.srv.TCPAddr().String() }
func (s *Server) Stats() authserver.Stats      { return s.Engine.Stats() }
func (s *Server) Cache() authserver.CacheStats { return s.Engine.CacheStats() }
func (s *Server) TCPConns() (open, total int64) {
	return s.srv.OpenTCPConns(), s.srv.TotalTCPConns()
}
func (s *Server) Close() { s.srv.Close() }

// recentSpans returns the server tracer's ring (recv → view → lookup/
// cache-hit → pack marks), newest first; nil when not instrumented.
func (s *Server) recentSpans() []obs.Span { return s.tracer.Recent(1024) }

// respondReference answers query through Engine.Respond, the shared
// (non-shard) path the batched datapath is checked against.
func respondReference(e *authserver.Engine, e0 *trace.Entry) ([]byte, error) {
	return e.Respond(e0.Message, e0.Src.Addr(), transportOf(e0.Protocol))
}

func transportOf(p trace.Protocol) authserver.Transport {
	if p == trace.TCP {
		return authserver.TCP
	}
	return authserver.UDP
}

// shardResponder answers through a fresh EngineShard, the batched
// datapath's per-worker path; dst is reused by the caller.
func shardResponder(e *authserver.Engine) func(dst []byte, e0 *trace.Entry) ([]byte, error) {
	sh := e.NewShard()
	return func(dst []byte, e0 *trace.Entry) ([]byte, error) {
		return sh.AppendRespond(dst, e0.Message, e0.Src.Addr(), transportOf(e0.Protocol))
	}
}

// ---- client: replay ----

// clientHooks are the engine callbacks the benchmark observes through.
type clientHooks struct {
	onSend     func(e *trace.Entry, at time.Time, schedErr time.Duration)
	onResponse func(msg []byte, at time.Time)
	onError    func(e *trace.Entry, err error)
}

// newClient builds the replay engine with `ldplayer replay`'s flag
// defaults. drain <= 0 keeps the engine's own default.
func newClient(udp, tcp string, fast bool, drain time.Duration, h clientHooks) (clientT, error) {
	return replay.New(replay.Config{
		Distributors:           1,
		QueriersPerDistributor: 6,
		UDPTarget:              udp,
		TCPTarget:              tcp,
		IdleTimeout:            20 * time.Second,
		UDPRetryTimeout:        250 * time.Millisecond,
		FastMode:               fast,
		DrainTimeout:           drain,
		OnSend:                 h.onSend,
		OnResponse:             h.onResponse,
		OnError:                h.onError,
	})
}

// instrumentClient attaches the registry `ldplayer replay -obs-listen`
// would and returns a reader for the send-batch-size median.
func instrumentClient(en clientT) (sendBatchP50 func() float64) {
	reg := obs.NewRegistry()
	en.Instrument(reg)
	return func() float64 {
		s, ok := reg.Find("ldplayer_send_batch_size", "")
		if !ok || s.Hist == nil || s.Hist.Count == 0 {
			return 0
		}
		return s.Hist.Quantile(0.5)
	}
}

type clientT = *replay.Engine

func replayTrace(ctx context.Context, en clientT, r trace.Reader) (*replay.Stats, error) {
	return en.Replay(ctx, r)
}

// replayAll replays r and insists that all n entries were sent.
func replayAll(en clientT, r trace.Reader, n int) error {
	st, err := en.Replay(context.Background(), r)
	return allSent(st, err, n)
}

// replayAllOverLink is replayAll with the entries crossing the
// controller→client TCP link (DialClients/ServeClient) on loopback first.
func replayAllOverLink(en clientT, r trace.Reader, n int) error {
	st, err := replayOverLink(en, r)
	return allSent(st, err, n)
}

func allSent(st *replay.Stats, err error, n int) error {
	if err != nil {
		return err
	}
	if st.Sent != int64(n) {
		return fmt.Errorf("benchkit: send-only replay sent %d of %d entries (%d errors)", st.Sent, n, st.Errors)
	}
	return nil
}

func replayOverLink(en *replay.Engine, r trace.Reader) (*replay.Stats, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	type served struct {
		st  *replay.Stats
		err error
	}
	done := make(chan served, 1)
	go func() {
		st, err := replay.ServeClient(ln, en)
		done <- served{st, err}
	}()
	rc, err := replay.DialClients(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	err = rc.Run(r)
	rc.Close()
	s := <-done
	if err == nil {
		err = s.err
	}
	return s.st, err
}

// ---- layers timed in isolation: zone, dnswire, mutate, netio ----

// lookupTarget is one pre-resolved zone.Lookup call.
type lookupTarget struct {
	z     *zone.Zone
	qname string
	qtype dnswire.Type
	do    bool
}

// lookupResolver returns a function that decodes a query and picks the
// hosting zone the way the default view does (longest enclosing origin).
func lookupResolver(h hierarchyT) func(query []byte) (lookupTarget, error) {
	zones := h.Zones()
	return func(query []byte) (lookupTarget, error) {
		var m dnswire.Message
		if err := m.Unpack(query); err != nil {
			return lookupTarget{}, err
		}
		q := m.Question[0]
		t := lookupTarget{qname: q.Name, qtype: q.Type, do: m.Edns != nil && m.Edns.DO}
		for name := q.Name; ; name = dnswire.ParentName(name) {
			if z, ok := zones[name]; ok {
				t.z = z
				return t, nil
			}
			if name == "." {
				return t, nil
			}
		}
	}
}

func (t lookupTarget) lookup() zone.Result {
	return t.z.Lookup(t.qname, t.qtype, zone.LookupOptions{DNSSEC: t.do})
}

func zoneRecords(h hierarchyT) int {
	n := 0
	for _, z := range h.Zones() {
		n += z.NumRecords()
	}
	return n
}

// wireCodec returns dnswire's two halves over one reused Message: unpack
// decodes wire into it, pack re-encodes whatever it holds into buf.
func wireCodec() (unpack func(wire []byte) error, pack func(buf []byte) ([]byte, error)) {
	var m dnswire.Message
	return m.Unpack, m.Pack
}

// udpPort is one loopback UDP socket behind netio.UDPBatch, with
// GRO-sized receive buffers.
type udpPort struct {
	c *net.UDPConn
	b *netio.UDPBatch
}

// openUDPPort dials peer, or binds an ephemeral loopback port when peer is
// empty. sendN and recvN are the sendmmsg/recvmmsg widths.
func openUDPPort(peer string, sendN, recvN int) (*udpPort, error) {
	var c *net.UDPConn
	var err error
	if peer == "" {
		c, err = net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), 0)))
	} else {
		var ra *net.UDPAddr
		if ra, err = net.ResolveUDPAddr("udp", peer); err == nil {
			c, err = net.DialUDP("udp", nil, ra)
		}
	}
	if err != nil {
		return nil, err
	}
	b, err := netio.NewUDPBatch(c, sendN, recvN, 64<<10, false)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &udpPort{c: c, b: b}, nil
}

func (p *udpPort) addr() string { return p.c.LocalAddr().String() }
func (p *udpPort) close()       { p.c.Close() }

// deadline bounds every later receive, so a lost datagram fails the row
// instead of hanging it.
func (p *udpPort) deadline(d time.Duration) { _ = p.c.SetReadDeadline(time.Now().Add(d)) }

func (p *udpPort) send(msgs [][]byte) error {
	_, err := p.b.Send(msgs)
	return err
}

// recv blocks for one recvmmsg and returns how many datagrams it
// delivered, counting each segment of a GRO-coalesced buffer.
func (p *udpPort) recv() (int, error) {
	n, err := p.b.Recv()
	pkts := 0
	for i := 0; i < n; i++ {
		if seg := p.b.SegSize(i); seg > 0 {
			pkts += (len(p.b.Msg(i)) + seg - 1) / seg
		} else {
			pkts++
		}
	}
	return pkts, err
}
