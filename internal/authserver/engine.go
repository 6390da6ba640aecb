// Package authserver implements the meta-DNS-server of §2.4: a single
// authoritative server instance that correctly emulates multiple
// independent levels of the DNS hierarchy. Zones are organized into
// split-horizon views selected by the query's *source address* — which,
// after the recursive proxy's OQDA rewrite, is the public address of the
// nameserver the query was originally destined for. One engine therefore
// answers as the root, the TLDs, and every SLD, each from the correct
// zone, as if they were independent servers.
//
// The engine is transport-agnostic; UDP, TCP and TLS listeners (live mode)
// and a netsim adapter (testbed mode) all feed it.
//
// The query hot path is engineered for replay-scale rates (§4.5): view
// routing is an atomically-swapped immutable snapshot (no per-packet
// locks), zone selection is a longest-enclosing-origin suffix-map walk
// (O(qname labels), not O(zones)), and fully-encoded responses are kept
// in a per-view packed-response cache so repeated questions are answered
// by patching two ID bytes and the echoed question into a copy of the
// cached wire image. A question the cache has not seen takes the miss
// path — unpack, zone lookup over the zone's compiled index, pack, cache
// insert — which allocates the decoded qname and the cache's copy of the
// response, and more only for wildcard and CNAME answers.
package authserver

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/obs"
	"ldplayer/internal/qlog"
	"ldplayer/internal/zone"
)

// Transport identifies how a query arrived, which controls truncation.
type Transport int

// Transports.
const (
	UDP Transport = iota
	TCP
	TLS
)

// String returns the transport mnemonic.
func (t Transport) String() string {
	switch t {
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	case TLS:
		return "tls"
	}
	return "?"
}

// View is a split-horizon view: the zones served to queries arriving from
// Sources. It corresponds to a BIND view with match-clients.
type View struct {
	Name    string
	Sources []netip.Addr
	Zones   []*zone.Zone
}

// viewRoute is the immutable per-view runtime state built when the view
// is registered: the origin suffix map for O(labels) zone selection and
// the packed-response cache. Zones are immutable after load (§2.3 zone
// files are fixed artifacts for a run), so neither structure ever needs
// invalidation. Registering a view also compiles its zones' lookup
// indexes, so serving never pays for that.
type viewRoute struct {
	view *View
	// zones maps canonical zone origin → zone.
	zones map[string]*zone.Zone
	cache *respCache
	// queries counts queries routed to this view (exposed as
	// metadns_view_queries_total{view=...} when instrumented).
	queries atomic.Int64
}

// newViewRoute precomputes the routing state for v.
func newViewRoute(v *View) *viewRoute {
	vr := &viewRoute{
		view:  v,
		zones: make(map[string]*zone.Zone, len(v.Zones)),
		cache: newRespCache(),
	}
	for _, z := range v.Zones {
		// First zone with a given origin wins, matching the old
		// first-longest linear scan on (pathological) duplicate origins.
		if _, dup := vr.zones[z.Origin]; !dup {
			vr.zones[z.Origin] = z
		}
		z.Compile()
	}
	return vr
}

// zoneFor selects the view's zone with the longest origin enclosing
// qname by walking qname's ancestor chain through the origin map. qname
// must be canonical (lowercase, dot-terminated), which holds for every
// name produced by dnswire unpacking.
//
//ldlint:noalloc
func (vr *viewRoute) zoneFor(qname string) *zone.Zone {
	for name := qname; ; {
		if z, ok := vr.zones[name]; ok {
			return z
		}
		if name == "." {
			return nil
		}
		if i := strings.IndexByte(name, '.'); i+1 < len(name) {
			name = name[i+1:]
		} else {
			name = "."
		}
	}
}

// routing is the immutable source→view snapshot the hot path reads with
// a single atomic load. AddView builds a new snapshot and swaps it in.
type routing struct {
	bySource    map[netip.Addr]*viewRoute
	defaultView *viewRoute
}

// route returns the view route matching src (or the default, or nil).
//
//ldlint:noalloc
func (rt *routing) route(src netip.Addr) *viewRoute {
	if vr, ok := rt.bySource[src]; ok {
		return vr
	}
	return rt.defaultView
}

// DefaultResponseCacheCap bounds each view's packed-response cache. The
// recursive experiment's 549 zones stay well under it while replayed
// B-Root traffic (heavy-tailed repeat questions) gets near-total hits.
const DefaultResponseCacheCap = 8192

// coreStats is one full set of per-query counters. The engine embeds one
// instance charged by the shared Respond path (UDP fallback, TCP, TLS,
// netsim); every EngineShard owns a private instance charged by its
// batch path. Shard instances live on their own cache lines and are only
// ever written by their owning worker goroutine, so the batched hot path
// performs no cross-core counter contention; readers (Stats, obs scrape)
// sum the engine instance and every shard instance.
type coreStats struct {
	queries     atomic.Int64
	responses   atomic.Int64
	truncated   atomic.Int64
	formErrs    atomic.Int64
	refused     atomic.Int64
	notImpl     atomic.Int64
	respBytes   atomic.Int64
	queryBytes  atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Dimensioned stats: queries by arrival transport and responses by
	// rcode. Plain atomic adds indexed by small constants — the hot path
	// never formats a label.
	qByTransport [3]atomic.Int64
	respByRcode  [16]atomic.Int64
}

// Engine answers DNS queries from a set of views. It is safe for
// concurrent use; views may even be added while serving.
type Engine struct {
	addMu    sync.Mutex // serializes AddView / cache-cap / shard changes
	routing  atomic.Pointer[routing]
	cacheCap atomic.Int64
	// cacheGen invalidates shard-local caches: shards compare it to their
	// snapshot at batch boundaries and clear on mismatch.
	cacheGen atomic.Uint64

	// coreStats is the shared-path counter set; see the type comment.
	coreStats

	// shards is the copy-on-write list of batch-path shards (read at
	// Stats/scrape time, swapped under addMu by NewShard).
	shards atomic.Pointer[[]*EngineShard]

	routingSwaps atomic.Int64

	// obsState enables sampled latency/tracing when non-nil; obsReg
	// (guarded by addMu) lets AddView register per-view counters for
	// views added after Instrument.
	obsState atomic.Pointer[engineObs]
	obsReg   *obs.Registry

	// qlogSt enables per-query telemetry events when non-nil; see
	// SetQlog in qlog.go.
	qlogSt atomic.Pointer[engineQlog]
}

// engineObs is the sampled-observability state installed by Instrument.
type engineObs struct {
	tracer  *obs.Tracer    // may be nil: metrics without spans
	latency *obs.Histogram // sampled Respond latency, nanoseconds
	// mask gates sampling as queries&mask == 0 — the period is rounded up
	// to a power of two so the hot path avoids an integer division, and
	// the query counter the engine already increments doubles as the
	// sampling counter, so the gate costs no extra atomic.
	mask uint64
}

// DefaultObsSampleEvery is the default 1-in-N sampling period for Respond
// latency timing and lifecycle spans. At replay rates the sampled path
// (two time.Now calls plus a pooled span) is amortized to noise.
const DefaultObsSampleEvery = 64

// NewEngine creates an empty engine.
func NewEngine() *Engine {
	e := &Engine{}
	e.cacheCap.Store(DefaultResponseCacheCap)
	e.routing.Store(&routing{bySource: make(map[netip.Addr]*viewRoute)})
	e.shards.Store(&[]*EngineShard{})
	return e
}

// SetResponseCacheCap sets the per-view packed-response cache capacity.
// n <= 0 disables the cache entirely. Existing cached entries are
// dropped so a smaller cap (or disablement) takes effect immediately.
func (e *Engine) SetResponseCacheCap(n int) {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	e.cacheCap.Store(int64(n))
	rt := e.routing.Load()
	seen := make(map[*respCache]struct{})
	for _, vr := range rt.bySource {
		seen[vr.cache] = struct{}{}
	}
	if rt.defaultView != nil {
		seen[rt.defaultView.cache] = struct{}{}
	}
	for c := range seen {
		c.clear()
	}
	// Shard-local caches are owned by their worker goroutines; bumping the
	// generation makes each shard clear its map at its next batch boundary.
	e.cacheGen.Add(1)
}

// AddView registers v. Views with no Sources become the default view; a
// source address may belong to only one view. The new routing snapshot
// becomes visible atomically; in-flight queries finish on the old one.
func (e *Engine) AddView(v *View) error {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	cur := e.routing.Load()
	next := &routing{
		bySource:    make(map[netip.Addr]*viewRoute, len(cur.bySource)+len(v.Sources)),
		defaultView: cur.defaultView,
	}
	for src, vr := range cur.bySource {
		next.bySource[src] = vr
	}
	vr := newViewRoute(v)
	if len(v.Sources) == 0 {
		if cur.defaultView != nil {
			return fmt.Errorf("authserver: second default view %q", v.Name)
		}
		next.defaultView = vr
	} else {
		for _, src := range v.Sources {
			if owner, dup := next.bySource[src]; dup {
				return fmt.Errorf("authserver: source %v already matched by view %q", src, owner.view.Name)
			}
		}
		for _, src := range v.Sources {
			next.bySource[src] = vr
		}
	}
	e.routing.Store(next)
	e.routingSwaps.Add(1)
	if e.obsReg != nil {
		registerViewCounter(e.obsReg, vr)
	}
	return nil
}

// Instrument registers the engine's counters and gauges with reg — all of
// them read the existing atomics at scrape time, so the query path gains
// nothing — and enables sampled latency timing plus (when tracer is
// non-nil) query-lifecycle spans: one query in sampleEvery is timed into
// the metadns_respond_latency_ns histogram and traced recv → view-select →
// cache-hit/lookup → pack. sampleEvery <= 0 means DefaultObsSampleEvery;
// it is rounded up to a power of two. The tracer's own sampling should be
// 1 (NewTracer(n, 1)) — the engine already gates which queries trace.
func (e *Engine) Instrument(reg *obs.Registry, tracer *obs.Tracer, sampleEvery int) {
	if sampleEvery <= 0 {
		sampleEvery = DefaultObsSampleEvery
	}
	period := uint64(1)
	for period < uint64(sampleEvery) {
		period <<= 1
	}
	e.addMu.Lock()
	defer e.addMu.Unlock()
	e.obsReg = reg

	for t := UDP; t <= TLS; t++ {
		idx := int(t)
		reg.CounterFunc("metadns_queries_total", obs.LabelValue("transport", t.String()),
			"queries received by arrival transport",
			func() int64 { return e.sumCounter(func(cs *coreStats) *atomic.Int64 { return &cs.qByTransport[idx] }) })
	}
	for _, rc := range []dnswire.Rcode{dnswire.RcodeNoError, dnswire.RcodeFormErr,
		dnswire.RcodeServFail, dnswire.RcodeNXDomain, dnswire.RcodeNotImp, dnswire.RcodeRefused} {
		idx := int(rc) & 0xF
		reg.CounterFunc("metadns_responses_total", obs.LabelValue("rcode", rc.String()),
			"responses sent by rcode",
			func() int64 { return e.sumCounter(func(cs *coreStats) *atomic.Int64 { return &cs.respByRcode[idx] }) })
	}
	reg.CounterFunc("metadns_query_bytes_total", "", "query bytes received",
		func() int64 { return e.sumCounter(func(cs *coreStats) *atomic.Int64 { return &cs.queryBytes }) })
	reg.CounterFunc("metadns_response_bytes_total", "", "response bytes sent",
		func() int64 { return e.sumCounter(func(cs *coreStats) *atomic.Int64 { return &cs.respBytes }) })
	reg.CounterFunc("metadns_truncated_total", "", "UDP responses truncated",
		func() int64 { return e.sumCounter(func(cs *coreStats) *atomic.Int64 { return &cs.truncated }) })
	reg.CounterFunc("metadns_cache_hits_total", "", "packed-response cache hits",
		func() int64 { return e.sumCounter(func(cs *coreStats) *atomic.Int64 { return &cs.cacheHits }) })
	reg.CounterFunc("metadns_cache_misses_total", "", "packed-response cache misses",
		func() int64 { return e.sumCounter(func(cs *coreStats) *atomic.Int64 { return &cs.cacheMisses }) })
	reg.CounterFunc("metadns_cache_evictions_total", "", "packed-response cache evictions",
		func() int64 { return e.CacheStats().Evictions })
	reg.GaugeFunc("metadns_cache_entries", "", "packed responses currently cached",
		func() int64 { return e.CacheStats().Entries })
	reg.CounterFunc("metadns_routing_swaps_total", "", "routing snapshot swaps (view additions)",
		e.routingSwaps.Load)

	rt := e.routing.Load()
	seen := make(map[*viewRoute]struct{})
	for _, vr := range rt.bySource {
		seen[vr] = struct{}{}
	}
	if rt.defaultView != nil {
		seen[rt.defaultView] = struct{}{}
	}
	for vr := range seen {
		registerViewCounter(reg, vr)
	}

	st := &engineObs{
		tracer:  tracer,
		latency: reg.Histogram("metadns_respond_latency_ns", "", "sampled Respond latency (ns)"),
		mask:    period - 1,
	}
	e.obsState.Store(st)
}

// registerViewCounter exposes one view's query counter.
func registerViewCounter(reg *obs.Registry, vr *viewRoute) {
	reg.CounterFunc("metadns_view_queries_total", obs.LabelValue("view", vr.view.Name),
		"queries routed to each split-horizon view", vr.queries.Load)
}

// ViewFor returns the view matching src (or the default view, or nil).
func (e *Engine) ViewFor(src netip.Addr) *View {
	if vr := e.routing.Load().route(src); vr != nil {
		return vr.view
	}
	return nil
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Queries       int64
	Responses     int64
	Truncated     int64
	FormErrs      int64
	Refused       int64
	NotImpl       int64
	QueryBytes    int64
	ResponseBytes int64
}

// Stats returns a snapshot of the engine counters, summed across the
// shared path and every batch shard.
func (e *Engine) Stats() Stats {
	var s Stats
	e.eachStats(func(cs *coreStats) {
		s.Queries += cs.queries.Load()
		s.Responses += cs.responses.Load()
		s.Truncated += cs.truncated.Load()
		s.FormErrs += cs.formErrs.Load()
		s.Refused += cs.refused.Load()
		s.NotImpl += cs.notImpl.Load()
		s.QueryBytes += cs.queryBytes.Load()
		s.ResponseBytes += cs.respBytes.Load()
	})
	return s
}

// eachStats visits the shared-path counter set and every shard's.
func (e *Engine) eachStats(f func(*coreStats)) {
	f(&e.coreStats)
	for _, sh := range *e.shards.Load() {
		f(&sh.stats)
	}
}

// sumCounter folds one counter across the shared path and all shards.
func (e *Engine) sumCounter(get func(*coreStats) *atomic.Int64) int64 {
	var n int64
	e.eachStats(func(cs *coreStats) { n += get(cs).Load() })
	return n
}

// CacheStats is a snapshot of the packed-response cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Entries   int64
	Evictions int64
}

// CacheStats returns hit/miss counters and the current entry and eviction
// counts across every view's response cache and every shard-local cache.
func (e *Engine) CacheStats() CacheStats {
	var st CacheStats
	e.eachStats(func(cs *coreStats) {
		st.Hits += cs.cacheHits.Load()
		st.Misses += cs.cacheMisses.Load()
	})
	rt := e.routing.Load()
	seen := make(map[*respCache]struct{})
	for _, vr := range rt.bySource {
		seen[vr.cache] = struct{}{}
	}
	if rt.defaultView != nil {
		seen[rt.defaultView.cache] = struct{}{}
	}
	for c := range seen {
		st.Entries += int64(c.len())
		st.Evictions += c.evictions.Load()
	}
	for _, sh := range *e.shards.Load() {
		st.Entries += sh.cacheEntries.Load()
		st.Evictions += sh.cacheEvictions.Load()
	}
	return st
}

// scratch bundles the per-call reusable state: unpack/response messages,
// the pack buffer, the cache key, and the echoed OPT. Pooled so the
// steady-state Respond path performs no per-query setup allocations.
type scratch struct {
	q        dnswire.Message
	resp     dnswire.Message
	edns     dnswire.EDNS
	key      []byte
	buf      []byte
	qnameLen int
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{
			key: make([]byte, 0, 280),
			buf: make([]byte, 0, 2048),
		}
	},
}

// respMeta records which stat counters a packed response charged, so
// cache hits can replay the same accounting.
type respMeta struct {
	cacheable bool
	truncated bool
	refused   bool
	rcode     dnswire.Rcode
}

// Respond answers the wire-format query arriving from src over transport.
// It always returns a response to send when err is nil; unparseable
// queries yield FORMERR when at least the header was readable, and a nil
// response (drop) otherwise. The returned slice is freshly allocated and
// owned by the caller.
//
//ldlint:noalloc
func (e *Engine) Respond(query []byte, src netip.Addr, transport Transport) ([]byte, error) {
	qn := uint64(e.queries.Add(1))
	e.queryBytes.Add(int64(len(query)))
	if t := int(transport); t >= 0 && t < len(e.qByTransport) {
		e.qByTransport[t].Add(1)
	}

	// Sampled observability: the query counter gates; unsampled queries
	// pay nothing further (span methods are nil-safe no-ops).
	ob := e.obsState.Load()
	var sp *obs.Span
	var t0 time.Time
	if ob != nil && qn&ob.mask == 0 {
		t0 = time.Now()
		sp = ob.tracer.Begin("query")
		if sp != nil {
			sp.Transport = transport.String()
		}
	}

	vr := e.routing.Load().route(src)
	if vr != nil {
		vr.queries.Add(1)
		if sp != nil {
			sp.View = vr.view.Name
		}
	}
	sp.Mark("view")

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	qs := e.qlogSt.Load()
	cacheable := false
	qlen := 0
	if vr != nil && e.cacheCap.Load() > 0 {
		if qnameLen, ok := buildCacheKey(sc, query, transport); ok {
			cacheable = true
			qlen = qnameLen
			sc.qnameLen = qnameLen
			setSpanQName(sp, query[12:12+qnameLen])
			if ent, ok := vr.cache.get(sc.key); ok {
				e.cacheHits.Add(1)
				out := appendCached(&e.coreStats, nil, ent, query, qnameLen)
				if sp != nil {
					sp.Detail = "cache_hit"
					sp.Rcode = int(ent.rcode)
				}
				sp.Mark("cache_hit")
				e.finishSample(ob, sp, t0)
				if qs != nil {
					e.qlogEmitShared(qs, query, src, transport, vr, qnameLen, ent.rcode, qlog.FlagCacheHit, t0)
				}
				return out, nil
			}
			e.cacheMisses.Add(1)
		}
	}

	out, meta, err := e.respondSlow(&e.coreStats, sc, nil, query, vr, transport, sp)
	if err == nil && cacheable && meta.cacheable {
		vr.cache.put(sc, out, meta, int(e.cacheCap.Load()))
	}
	if sp != nil {
		sp.Rcode = int(meta.rcode)
	}
	e.finishSample(ob, sp, t0)
	if qs != nil {
		var flags uint8
		if err != nil || out == nil {
			flags = qlog.FlagDropped
		}
		e.qlogEmitShared(qs, query, src, transport, vr, qlen, meta.rcode, flags, t0)
	}
	return out, err
}

// finishSample records the sampled latency and publishes the span.
//
//ldlint:noalloc
func (e *Engine) finishSample(ob *engineObs, sp *obs.Span, t0 time.Time) {
	if ob == nil || t0.IsZero() {
		return
	}
	ob.latency.Record(time.Since(t0).Nanoseconds())
	ob.tracer.Finish(sp)
}

// setSpanQName converts a wire-form qname (length-prefixed labels) to
// presentation form into the span's fixed buffer. Sampled path only; the
// stack buffer never escapes.
//
//ldlint:noalloc
func setSpanQName(sp *obs.Span, wire []byte) {
	if sp == nil {
		return
	}
	var buf [128]byte
	n := 0
	for off := 0; off < len(wire); {
		l := int(wire[off])
		off++
		if l == 0 || off+l > len(wire) || n+l+1 > len(buf) {
			break
		}
		n += copy(buf[n:], wire[off:off+l])
		buf[n] = '.'
		n++
		off += l
	}
	if n == 0 {
		buf[0] = '.'
		n = 1
	}
	sp.SetNameBytes(buf[:n])
}

// respondSlow is the full parse → route → lookup → pack path, appending
// the response to dst (nil dst yields a fresh caller-owned slice). st is
// the counter set to charge — the engine's own on the shared path, a
// shard's on the batch path. sp may be nil (unsampled).
//
//ldlint:noalloc
func (e *Engine) respondSlow(st *coreStats, sc *scratch, dst, query []byte, vr *viewRoute, transport Transport, sp *obs.Span) ([]byte, respMeta, error) {
	q := &sc.q
	if err := q.Unpack(query); err != nil {
		if len(query) >= 12 {
			st.formErrs.Add(1)
			out, err := errorResponse(st, sc, dst, query, dnswire.RcodeFormErr)
			return out, respMeta{rcode: dnswire.RcodeFormErr}, err
		}
		//ldlint:ignore noallocprop cold error constructor: only queries under 12 bytes reach it, and they are dropped, not answered
		return dst, respMeta{}, errUndecodable(err)
	}
	sp.Mark("parse")
	if q.Header.Opcode != dnswire.OpcodeQuery {
		// NOTIFY/UPDATE/IQUERY are out of scope for an authoritative
		// replay target; answer NOTIMP like NSD does.
		st.notImpl.Add(1)
		out, err := errorResponse(st, sc, dst, query, dnswire.RcodeNotImp)
		return out, respMeta{rcode: dnswire.RcodeNotImp}, err
	}
	if q.Header.QR || len(q.Question) != 1 {
		st.formErrs.Add(1)
		out, err := errorResponse(st, sc, dst, query, dnswire.RcodeFormErr)
		return out, respMeta{rcode: dnswire.RcodeFormErr}, err
	}

	resp := &sc.resp
	resp.SetResponseTo(q)
	// Echo EDNS: respond with our own OPT advertising a large buffer and
	// mirroring the DO bit, as real authoritative servers do.
	dnssecOK := false
	udpLimit := dnswire.MaxUDPSize
	if q.Edns != nil {
		dnssecOK = q.Edns.DO
		if int(q.Edns.UDPSize) > udpLimit {
			udpLimit = int(q.Edns.UDPSize)
		}
		sc.edns = dnswire.EDNS{UDPSize: dnswire.DefaultEDNSSize, DO: q.Edns.DO}
		resp.Edns = &sc.edns
	}

	meta := respMeta{cacheable: true}
	question := q.Question[0]
	var z *zone.Zone
	if vr != nil {
		z = vr.zoneFor(question.Name)
	}
	if z == nil {
		st.refused.Add(1)
		meta.refused = true
		resp.Header.Rcode = dnswire.RcodeRefused
		out, err := packResponse(st, sc, dst, resp, transport, udpLimit, &meta, sp)
		return out, meta, err
	}

	if sp != nil {
		sp.Detail = "lookup"
	}
	res := z.Lookup(question.Name, question.Type, zone.LookupOptions{DNSSEC: dnssecOK})
	sp.Mark("lookup")
	switch res.Kind {
	case zone.Answer:
		resp.Header.AA = true
		resp.Answer = res.Records
		resp.Authority = res.Authority
		resp.Additional = res.Additional
	case zone.NoData:
		resp.Header.AA = true
		resp.Authority = res.Authority
	case zone.NXDomain:
		resp.Header.AA = true
		resp.Header.Rcode = dnswire.RcodeNXDomain
		resp.Authority = res.Authority
	case zone.Referral:
		// Referrals are not authoritative answers: AA stays clear.
		resp.Authority = res.Authority
		resp.Additional = res.Additional
	case zone.OutOfZone:
		st.refused.Add(1)
		meta.refused = true
		resp.Header.Rcode = dnswire.RcodeRefused
	}
	out, err := packResponse(st, sc, dst, resp, transport, udpLimit, &meta, sp)
	return out, meta, err
}

// errUndecodable wraps the parse error for a query too short to answer.
// Kept out of the annotated respondSlow so the fmt machinery stays off
// the fast path; queries this malformed are dropped, not answered, so
// the allocation is already off the steady-state rate.
func errUndecodable(err error) error {
	return fmt.Errorf("authserver: undecodable query: %w", err)
}

// packResponse encodes resp into the scratch buffer, applying UDP
// truncation when necessary, and appends the encoding to dst. With a nil
// dst the append is the response's one intended allocation (the shared
// path's caller-owned copy); the batch path passes its reusable slab and
// allocates nothing at steady state. Truncated responses shrink to the
// question + OPT, which also drops them out of any GSO run their
// full-size siblings form (unequal sizes never coalesce).
//
//ldlint:noalloc
func packResponse(st *coreStats, sc *scratch, dst []byte, resp *dnswire.Message, transport Transport, udpLimit int, meta *respMeta, sp *obs.Span) ([]byte, error) {
	wire, err := resp.Pack(sc.buf[:0])
	if err != nil {
		return dst, err
	}
	sc.buf = wire[:0]
	if transport == UDP && len(wire) > udpLimit {
		st.truncated.Add(1)
		meta.truncated = true
		resp.Header.TC = true
		// RFC 2181 §9: truncate to an empty answer; the client retries
		// over TCP. Keep the question and OPT only.
		resp.Answer = nil
		resp.Authority = nil
		resp.Additional = nil
		if wire, err = resp.Pack(sc.buf[:0]); err != nil {
			return dst, err
		}
		sc.buf = wire[:0]
	}
	meta.rcode = resp.Header.Rcode
	// The sections were views of zone data (zone.Result): drop them, so
	// that the scratch message's next Reset cannot truncate one to [:0]
	// and hand the zone's backing array to an append.
	resp.Answer, resp.Authority, resp.Additional = nil, nil, nil
	st.responses.Add(1)
	st.respByRcode[int(resp.Header.Rcode)&0xF].Add(1)
	st.respBytes.Add(int64(len(wire)))
	sp.Mark("pack")
	return append(dst, wire...), nil
}

// errorResponse builds a minimal response with rcode from a raw query
// whose header (at least) was parseable, appending it to dst.
//
//ldlint:noalloc
func errorResponse(st *coreStats, sc *scratch, dst, query []byte, rcode dnswire.Rcode) ([]byte, error) {
	resp := &sc.resp
	resp.Reset()
	resp.Header.ID = uint16(query[0])<<8 | uint16(query[1])
	resp.Header.QR = true
	resp.Header.Rcode = rcode
	wire, err := resp.Pack(sc.buf[:0])
	if err != nil {
		return dst, err
	}
	sc.buf = wire[:0]
	st.responses.Add(1)
	st.respByRcode[int(rcode)&0xF].Add(1)
	st.respBytes.Add(int64(len(wire)))
	return append(dst, wire...), nil
}
