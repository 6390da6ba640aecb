package authserver

import (
	"net/netip"
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/qlog"
)

// Query-log emit points. Each served query publishes exactly one event
// from the shard that answered it, so the pipeline's accounting invariant
// (events + ring drops == engine queries) holds by construction. Every
// shard owns an SPSC producer — one goroutine holds a shard at a time,
// whether it is a serve loop's own or borrowed through Engine.Respond —
// so no emit takes a lock. Emitting is stores into a ring slot — no
// syscall, no block, no allocation — and a full ring sheds the event,
// never the response.

// SetQlog attaches the query-log pipeline, or with nil detaches it.
// Every shard, however long it has existed, follows at its next
// BeginBatch: Engine.Respond's shards on the next query, a serve loop's
// on its next receive batch.
func (e *Engine) SetQlog(p *qlog.Pipeline) {
	e.qlogPipe.Store(p)
}

// bindQlog points the shard at pipeline p with a producer (and ring) of
// its own. The old ring stays registered with its pipeline, so what it
// published still counts there.
func (sh *EngineShard) bindQlog(p *qlog.Pipeline) {
	sh.qlogPipe, sh.qlog = p, nil
	if p != nil {
		sh.qlog = p.Producer()
	}
}

// qlogEmit publishes one event for a query. Flags carries the
// caller-known bits (cache hit, dropped).
//
//ldlint:noalloc
func (sh *EngineShard) qlogEmit(query []byte, src netip.Addr, transport Transport, vr *viewRoute, qnameLen int, rcode dnswire.Rcode, flags uint8, t0 time.Time) {
	p := sh.qlog
	if p == nil {
		return
	}
	ev := p.Reserve()
	if ev == nil {
		return
	}
	fillQueryEvent(ev, sh.qlogNow, query, src, transport, vr, qnameLen, rcode, flags, t0)
	p.Commit()
}

// fillQueryEvent fills a reserved ring slot from the raw query wire.
// qnameLen, when the cache path already parsed it, is the question name
// length including the root terminator; 0 makes this helper scan the
// wire itself (refused/FORMERR/cache-off paths). Latency is recorded
// only for queries the obs sampler timed (t0 set); the rest carry -1.
//
//ldlint:noalloc
func fillQueryEvent(ev *qlog.Event, now int64, query []byte, src netip.Addr, transport Transport, vr *viewRoute, qnameLen int, rcode dnswire.Rcode, flags uint8, t0 time.Time) {
	ev.Time = now
	ev.Latency = -1
	if !t0.IsZero() {
		ev.Latency = time.Since(t0).Nanoseconds()
	}
	ev.Peer = src
	ev.View = ""
	if vr != nil {
		ev.View = vr.view.Name
	}
	ev.ID = 0
	if len(query) >= 2 {
		ev.ID = uint16(query[0])<<8 | uint16(query[1])
	}
	if qnameLen == 0 {
		qnameLen = qlog.WireQNameLen(query)
	}
	ev.QType, ev.QClass, ev.QNameLen = 0, 0, 0
	if qnameLen > 0 && 12+qnameLen+4 <= len(query) && qnameLen <= len(ev.QName) {
		ev.QNameLen = uint8(copy(ev.QName[:], query[12:12+qnameLen]))
		ev.QType = uint16(query[12+qnameLen])<<8 | uint16(query[12+qnameLen+1])
		ev.QClass = uint16(query[12+qnameLen+2])<<8 | uint16(query[12+qnameLen+3])
	}
	ev.Rcode = uint8(rcode)
	ev.Transport = uint8(transport)
	ev.Flags = flags
}
