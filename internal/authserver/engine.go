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
// There is one way to answer a query: EngineShard.AppendRespond
// (shard.go). A shard is a goroutine-confined scratch, packed-response
// cache, and counter set; each UDP worker (serve_batch.go) owns
// one, and everything else — TCP/TLS connections, the netsim adapter,
// the experiments harness — goes through Engine.Respond, which borrows a
// shard from a small engine-owned list for the length of one query.
//
// The query hot path is engineered for replay-scale rates (§4.5): view
// routing is an atomically-swapped immutable snapshot (no per-packet
// locks), zone selection is a longest-enclosing-origin suffix-map walk
// (O(qname labels), not O(zones)), and fully-encoded responses are kept
// in the shard's packed-response cache, keyed by view, so repeated
// questions are answered by patching two ID bytes and the echoed question
// into a copy of the cached wire image. A question the cache has not
// seen takes the miss path — unpack, zone lookup over the zone's compiled
// index, pack, cache insert — which at steady state allocates only for
// wildcard and CNAME answers: the decoded qname goes into the scratch
// message's write-once name chunk, and the insert overwrites the oldest
// record in the shard's byte ring (cache.go).
package authserver

import (
	"fmt"
	"net/netip"
	"runtime"
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
// is registered: the origin suffix map for O(labels) zone selection.
// Zones are immutable after load (§2.3 zone files are fixed artifacts for
// a run), so it never needs invalidation. Registering a view also
// compiles its zones' lookup indexes, so serving never pays for that.
type viewRoute struct {
	view *View
	// id distinguishes this view's entries in the shard caches: it is
	// part of every cache key, so one question cached for one view is
	// never served to another.
	id uint32
	// zones maps canonical zone origin → zone.
	zones map[string]*zone.Zone
	// queries counts queries routed to this view (exposed as
	// metadns_view_queries_total{view=...} when instrumented).
	queries atomic.Int64
}

// newViewRoute precomputes the routing state for v.
func newViewRoute(v *View, id uint32) *viewRoute {
	vr := &viewRoute{
		view:  v,
		id:    id,
		zones: make(map[string]*zone.Zone, len(v.Zones)),
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
	// views counts the views registered so far; the next one's id.
	views uint32
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

// DefaultResponseCacheCap bounds each shard's packed-response cache. The
// recursive experiment's 549 zones stay well under it while replayed
// B-Root traffic (heavy-tailed repeat questions) gets near-total hits.
const DefaultResponseCacheCap = 8192

// coreStats is one full set of per-query counters. Every EngineShard
// owns a private instance, written only by the goroutine that holds the
// shard, so the hot path performs no cross-core counter contention;
// readers (Stats, obs scrape) sum every shard's instance.
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

	// shards is the copy-on-write list of every shard (read at
	// Stats/scrape time, swapped under addMu by NewShard).
	shards atomic.Pointer[[]*EngineShard]

	// free stacks the idle shards of the few (lent counts them, at most
	// cap(free)) that Respond lends out, one query at a time; freeBack
	// wakes a borrower waiting for one. The lock hands a shard from one
	// borrower to the next, so each is still used by one goroutine at a
	// time.
	freeMu   sync.Mutex
	freeBack sync.Cond
	free     []*EngineShard
	lent     int

	routingSwaps atomic.Int64

	// obsState enables sampled latency/tracing when non-nil; obsReg
	// (guarded by addMu) lets AddView register per-view counters for
	// views added after Instrument.
	obsState atomic.Pointer[engineObs]
	obsReg   *obs.Registry

	// qlogPipe enables per-query telemetry events when non-nil; see
	// SetQlog in qlog.go.
	qlogPipe atomic.Pointer[qlog.Pipeline]
}

// engineObs is the sampled-observability state installed by Instrument.
type engineObs struct {
	tracer  *obs.Tracer    // may be nil: metrics without spans
	latency *obs.Histogram // sampled Respond latency, nanoseconds
	// mask gates sampling as queries&mask == 0 — the period is rounded up
	// to a power of two so the hot path avoids an integer division, and
	// the query counter each shard already increments doubles as its
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
	e.free = make([]*EngineShard, 0, runtime.GOMAXPROCS(0))
	e.freeBack.L = &e.freeMu
	return e
}

// SetResponseCacheCap sets how many packed responses each shard's cache
// holds, over all views together. n <= 0 disables the cache entirely.
// Existing cached entries are dropped so a smaller cap (or disablement)
// takes effect immediately: a cache is its shard's alone to touch, so
// bumping the generation makes each shard clear its map at its next
// batch boundary, and CacheStats counts a shard that has yet to as empty.
func (e *Engine) SetResponseCacheCap(n int) {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	e.cacheCap.Store(int64(n))
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
		views:       cur.views + 1,
	}
	for src, vr := range cur.bySource {
		next.bySource[src] = vr
	}
	vr := newViewRoute(v, cur.views)
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

// Stats returns a snapshot of the engine counters, summed across every
// shard.
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

// eachStats visits every shard's counter set.
func (e *Engine) eachStats(f func(*coreStats)) {
	for _, sh := range *e.shards.Load() {
		f(&sh.stats)
	}
}

// sumCounter folds one counter across all shards.
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
// counts across every shard's cache.
func (e *Engine) CacheStats() CacheStats {
	var st CacheStats
	gen := e.cacheGen.Load()
	for _, sh := range *e.shards.Load() {
		st.Hits += sh.stats.cacheHits.Load()
		st.Misses += sh.stats.cacheMisses.Load()
		// A shard behind the generation drops its entries before it next
		// looks one up; they are gone already as far as a reader can tell.
		if sh.gen.Load() == gen {
			st.Entries += sh.cacheEntries.Load()
		}
		st.Evictions += sh.cacheEvictions.Load()
	}
	return st
}

// scratch bundles a shard's reusable per-query state: unpack/response
// messages, the pack buffer, the cache key and its hash, and the echoed
// OPT.
type scratch struct {
	q        dnswire.Message
	resp     dnswire.Message
	edns     dnswire.EDNS
	key      []byte
	keyHash  uint64
	buf      []byte
	qnameLen int
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
	return e.respondBorrowed(nil, query, src, transport)
}

// respondBorrowed answers one query through a borrowed shard, as a receive
// batch of one: EngineShard.AppendRespond is the only implementation of
// answering, and this is how callers with no shard of their own reach it.
//
//ldlint:noalloc
func (e *Engine) respondBorrowed(dst, query []byte, src netip.Addr, transport Transport) ([]byte, error) {
	sh := e.borrowShard()
	defer e.returnShard(sh) // deferred: a shard lost to a panic would starve every later caller
	sh.BeginBatch()
	out, err := sh.AppendRespond(dst, query, src, transport)
	sh.EndBatch()
	return out, err
}

// borrowShard takes the most recently returned idle shard, makes one
// while there are fewer than GOMAXPROCS (as of NewEngine), and otherwise
// waits for one to come back. The wait is short and cannot deadlock: a
// shard is only ever held across AppendRespond, which does not block, so
// its holder is running or runnable, and no more goroutines than
// GOMAXPROCS can be running. So however many callers there are — a
// thousand TCP connections — they share that many caches, and a lone
// caller always gets the same one.
//
//ldlint:noalloc
func (e *Engine) borrowShard() *EngineShard {
	e.freeMu.Lock()
	for len(e.free) == 0 && e.lent == cap(e.free) {
		e.freeBack.Wait()
	}
	if n := len(e.free); n > 0 {
		sh := e.free[n-1]
		e.free = e.free[:n-1]
		e.freeMu.Unlock()
		return sh
	}
	e.lent++
	e.freeMu.Unlock()
	//ldlint:ignore noallocprop cold: runs once per shard, GOMAXPROCS times at most
	return e.NewShard()
}

// returnShard puts a borrowed shard back for the next caller.
//
//ldlint:noalloc
func (e *Engine) returnShard(sh *EngineShard) {
	e.freeMu.Lock()
	e.free = append(e.free, sh) // within its capacity: lent ≤ cap(free)
	e.freeMu.Unlock()
	e.freeBack.Signal()
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
// the calling shard's counter set. sp may be nil (unsampled).
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
		out, err := packResponse(st, sc, dst, query, resp, transport, udpLimit, &meta, sp)
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
	out, err := packResponse(st, sc, dst, query, resp, transport, udpLimit, &meta, sp)
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
// dst the append is the response's one intended allocation (Respond's
// caller-owned copy); the serve loops pass a reusable buffer and
// allocate nothing at steady state. Truncated responses shrink to the
// question + OPT, which also drops them out of any GSO run their
// full-size siblings form (unequal sizes never coalesce).
//
//ldlint:noalloc
func packResponse(st *coreStats, sc *scratch, dst, query []byte, resp *dnswire.Message, transport Transport, udpLimit int, meta *respMeta, sp *obs.Span) ([]byte, error) {
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
	if !echoQuestion(wire, query) {
		meta.cacheable = false
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

// echoQuestion overwrites the question name in a packed response with the
// query's own bytes, and reports whether it could. Unpacking canonicalised
// the name — lower case, and a dot inside a label became a label break —
// but a client checks for the bytes it sent (DNS 0x20 mixes their case),
// and a cache hit patches exactly those bytes over this span, so a miss
// must return them too. It cannot when either name is compressed or
// malformed or the two differ in length; the caller keeps such a response
// out of the cache, where a later hit would patch the wrong span.
//
//ldlint:noalloc
func echoQuestion(resp, query []byte) bool {
	n := qlog.WireQNameLen(query)
	if n == 0 || n != qlog.WireQNameLen(resp) {
		return false
	}
	copy(resp[12:12+n], query[12:12+n])
	return true
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
