package authserver

import (
	"net/netip"
	"sync/atomic"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/qlog"
)

// EngineShard is the one place a query is answered, and one goroutine's
// private slice of the engine while it does so: a packed-response cache
// (a byte ring and its index, no mutex — the goroutine holding the shard
// is its only reader and writer), a private coreStats counter set, and a
// private scratch. Each UDP serve loop owns a shard for its lifetime
// (the batched datapath pairs one with each SO_REUSEPORT worker socket);
// every other caller borrows one per query through Engine.Respond. Either
// way the receive→respond→send hot path touches no cross-shard mutable
// state: no cache lock, no contended counter cache lines, no sync.Pool
// traffic. Shared *read-only* state (the routing snapshot, the cache
// capacity, the obs sampling state) is still loaded atomically from the
// engine, which costs nothing under contention-free reads.
//
// Concurrency contract: BeginBatch, AppendRespond and EndBatch must be
// called from one goroutine at a time — the worker that owns the shard,
// or the borrower Engine.Respond's free-list lock handed it to. Stats
// readers only touch the shard's atomic counters, never the cache, so
// Engine.Stats and obs scrapes stay race-free while the shard serves.
// The race-detector suite (`make race`) is the check on that contract:
// each way a shard can leak to a second goroutine (channel sends,
// go-closure captures, spawn arguments, package-level or cross-shard
// stores) races with its owner in the serving tests (DESIGN.md "Static
// analysis" records the probe).
type EngineShard struct {
	e *Engine

	// sc is the shard-owned scratch.
	sc scratch

	// cache is the packed-response cache, confined to the goroutine that
	// holds the shard. Keys carry the view id, so views never share an
	// entry.
	cache respCache
	// gen is the cache-generation snapshot; BeginBatch clears the cache when
	// the engine has bumped cacheGen (cap change / disablement). Atomic
	// only so CacheStats can tell a cache that is about to be cleared.
	gen atomic.Uint64

	// cacheEntries/cacheEvictions mirror the cache's size and eviction
	// count for CacheStats readers, which must not touch the cache itself.
	cacheEntries   atomic.Int64
	cacheEvictions atomic.Int64

	// stats is the shard-private counter set, summed into Engine.Stats.
	stats coreStats

	// Run-length batched per-view accounting: consecutive queries routed
	// to the same view accumulate locally and flush with one atomic add
	// on view change or batch end, so the (shared) per-view counter is
	// touched ~once per batch instead of once per query.
	pendVR *viewRoute
	pendN  int64

	// qlog is the shard's SPSC telemetry producer into qlogPipe (nil when
	// telemetry is off); qlogNow is the batch-wide receive timestamp
	// BeginBatch stamps.
	qlogPipe *qlog.Pipeline
	qlog     *qlog.Producer
	qlogNow  int64
}

// NewShard registers and returns a new shard, the caller's to use from
// one goroutine.
func (e *Engine) NewShard() *EngineShard {
	sh := &EngineShard{
		e:     e,
		cache: newRespCache(),
	}
	sh.gen.Store(e.cacheGen.Load())
	sh.sc.key = make([]byte, 0, 280)
	sh.sc.buf = make([]byte, 0, 2048)
	e.addMu.Lock()
	cur := *e.shards.Load()
	next := make([]*EngineShard, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = sh
	e.shards.Store(&next)
	e.addMu.Unlock()
	return sh
}

// AppendRespond answers the wire-format query arriving from src over
// transport, appending the response to dst and returning the extended
// slice. A response was produced iff the result is longer than dst; on
// error (or a drop) dst is returned unchanged. The caller owns dst and
// typically reuses one slab across a whole receive batch, so the
// cache-hit steady state allocates nothing. This function is the only
// cache-probe → respondSlow → cache-insert sequence in the package.
//
//ldlint:noalloc
func (sh *EngineShard) AppendRespond(dst, query []byte, src netip.Addr, transport Transport) ([]byte, error) {
	e := sh.e
	st := &sh.stats
	qn := uint64(st.queries.Add(1))
	st.queryBytes.Add(int64(len(query)))
	if t := int(transport); t >= 0 && t < len(st.qByTransport) {
		st.qByTransport[t].Add(1)
	}

	// Sampled observability: the shard's own query counter gates, so each
	// shard samples 1 in N of its own traffic.
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
		if vr == sh.pendVR {
			sh.pendN++
		} else {
			sh.flushViewCount()
			sh.pendVR = vr
			sh.pendN = 1
		}
		if sp != nil {
			sp.View = vr.view.Name
		}
	}
	sp.Mark("view")

	sc := &sh.sc
	cacheable := false
	qlen := 0
	if vr != nil && e.cacheCap.Load() > 0 {
		if qnameLen, ok := buildCacheKey(sc, query, transport, vr.id); ok {
			cacheable = true
			qlen = qnameLen
			sc.qnameLen = qnameLen
			setSpanQName(sp, query[12:12+qnameLen])
			sc.keyHash = sh.cache.hash(sc.key)
			if ent, ok := sh.cache.get(sc.keyHash, sc.key); ok {
				st.cacheHits.Add(1)
				dst = appendCached(st, dst, ent, query, qnameLen)
				if sp != nil {
					sp.Detail = "cache_hit"
					sp.Rcode = int(ent.rcode)
				}
				sp.Mark("cache_hit")
				e.finishSample(ob, sp, t0)
				sh.qlogEmit(query, src, transport, vr, qnameLen, ent.rcode, qlog.FlagCacheHit, t0)
				return dst, nil
			}
			st.cacheMisses.Add(1)
		}
	}

	out, meta, err := e.respondSlow(st, sc, dst, query, vr, transport, sp)
	if err == nil && cacheable && meta.cacheable && len(out) > len(dst) {
		sh.cachePut(out[len(dst):], meta, int(e.cacheCap.Load()))
	}
	if sp != nil {
		sp.Rcode = int(meta.rcode)
	}
	e.finishSample(ob, sp, t0)
	if err != nil {
		sh.qlogEmit(query, src, transport, vr, qlen, meta.rcode, qlog.FlagDropped, t0)
		return dst, err
	}
	var flags uint8
	if len(out) == len(dst) {
		flags = qlog.FlagDropped
	}
	sh.qlogEmit(query, src, transport, vr, qlen, meta.rcode, flags, t0)
	return out, nil
}

// BeginBatch brings the shard up to date with the engine — dropping its
// cache if the capacity changed, taking a producer on the current qlog
// pipeline — and stamps the receive time shared by every event the next
// receive batch emits. One clock read per recvmmsg return bounds the
// timestamp error by the batch's service time (tens of microseconds at
// full load) and keeps time.Now off the per-query path.
//
//ldlint:noalloc
func (sh *EngineShard) BeginBatch() {
	if g := sh.e.cacheGen.Load(); g != sh.gen.Load() {
		sh.gen.Store(g)
		sh.cache.reset()
		sh.cacheEntries.Store(0)
	}
	if p := sh.e.qlogPipe.Load(); p != sh.qlogPipe {
		//ldlint:ignore noallocprop cold: runs once per shard per SetQlog, to allocate the shard's ring
		sh.bindQlog(p)
	}
	if sh.qlog != nil {
		sh.qlogNow = time.Now().UnixNano()
	}
}

// EndBatch flushes the pending per-view count. Call it once per receive
// batch, after the batch's last AppendRespond.
//
//ldlint:noalloc
func (sh *EngineShard) EndBatch() {
	sh.flushViewCount()
}

// flushViewCount publishes the accumulated run of same-view queries.
//
//ldlint:noalloc
func (sh *EngineShard) flushViewCount() {
	if sh.pendVR != nil && sh.pendN > 0 {
		sh.pendVR.queries.Add(sh.pendN)
	}
	sh.pendVR = nil
	sh.pendN = 0
}

// cachePut stores a copy of resp in the shard's cache under the scratch
// key. The stored image gets a zeroed ID (hits always overwrite it) but
// is otherwise byte-identical to what the slow path returned.
func (sh *EngineShard) cachePut(resp []byte, meta respMeta, capacity int) {
	sc := &sh.sc
	if capacity <= 0 || len(resp) < 12+sc.qnameLen+4 {
		return
	}
	sh.cacheEvictions.Add(sh.cache.put(sc.keyHash, sc.key, resp, meta, capacity))
	sh.cacheEntries.Store(int64(sh.cache.n))
}
