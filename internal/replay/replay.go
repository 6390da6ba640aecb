// Package replay implements LDplayer's distributed query engine (§2.6,
// Figure 4): a Controller whose Reader pre-loads a window of queries and
// whose Postman distributes them stickily by original source address to
// Distributors, which distribute — again stickily — to Queriers that own
// the sockets.
//
// Timing follows the paper exactly: on the first query the controller
// broadcasts a time-synchronization point (t̄₁, t₁); for query i the
// engine computes the relative trace time Δt̄ᵢ = t̄ᵢ − t̄₁ and schedules
// the send at t₁ + Δt̄ᵢ — or immediately when the input has fallen
// behind. The scheduler is a per-distributor timing wheel (wheel.go)
// rather than a timer per query: entries are binned into sub-millisecond
// ticks and released to queriers as per-tick bursts, so the cost of
// pacing is one wakeup per tick, not one per query.
//
// The datapath is batched end to end: the reader decodes entries in
// batches, batches flow through the postman and distributors in pooled
// slices, and queriers group each burst by socket and submit it with
// sendmmsg/recvmmsg where the platform has them (internal/netio).
//
// Sticky distribution guarantees all queries from one original source
// reach the same querier, which maps sources to sockets, so DNS-over-TCP
// connection reuse is emulated faithfully; new sources open new sockets
// and idle connections close after a configurable timeout.
//
// In the paper the controller and client instances are separate hosts
// linked by TCP. Here distributors and queriers are goroutine pools in
// one process by default (the coordination logic is identical), and the
// same controller can feed remote distributors over real TCP links — see
// link.go — which is how the multi-host topology of Figure 5 is exercised
// in tests.
package replay

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/qlog"
	"ldplayer/internal/trace"
	"ldplayer/internal/vclock"
)

// defaultMaxBatch is the entry-batch capacity used throughout the
// datapath (reader decode, postman/distributor hand-off, wheel bursts).
// Sized so that even with entries fanned out over six queriers and a few
// dozen sockets each, the per-socket groups still fill wide sendmmsg/GSO
// calls (64 segments per super-datagram on linux).
const defaultMaxBatch = 4096

// Timing-wheel geometry: 250µs ticks bound the pacing quantization to a
// quarter millisecond, and 32768 slots give each distributor an ~8s
// scheduling horizon — enough for the full exponential-backoff
// retransmission ladder without touching the overflow list.
const (
	defaultWheelTick  = 250 * time.Microsecond
	defaultWheelSlots = 32768
)

// Config configures an Engine.
type Config struct {
	// Distributors is the number of distributor workers (client
	// instances). Default 1.
	Distributors int
	// QueriersPerDistributor is the querier pool per distributor. The
	// paper's prototype runs six. Default 6.
	QueriersPerDistributor int
	// Window is the reader pre-load depth in queries ("the reader
	// pre-loads a window of queries to avoid falling behind real time").
	// Default 4096.
	Window int

	// UDPTarget, TCPTarget, TLSTarget are the testbed server addresses
	// ("host:port"). An entry's protocol selects among them. Empty targets
	// reject entries of that protocol. New resolves UDPTarget once, so an
	// unresolvable one fails there rather than once per source.
	UDPTarget string
	TCPTarget string
	TLSTarget string
	// TLSConfig authenticates the TLS target.
	TLSConfig *tls.Config

	// IdleTimeout closes reusable TCP/TLS connections idle this long.
	// Default 20s (the paper's reference timeout).
	IdleTimeout time.Duration

	// UDPRetries is the number of retransmissions an unanswered UDP query
	// gets after its first send, stub-resolver style: retransmit after
	// UDPRetryTimeout, doubling the wait each time, then give up. 0 (the
	// default) disables retransmission — fire and forget, as before.
	UDPRetries int
	// UDPRetryTimeout is the wait before the first retransmission.
	// Default 250ms when UDPRetries > 0.
	UDPRetryTimeout time.Duration
	// StreamAttempts is how many times a TCP/TLS send is attempted across
	// reconnects before the query errors out. Default 2 (one reconnect),
	// the original hard-coded behavior.
	StreamAttempts int

	// FastMode disables timing and sends queries as fast as possible
	// (§2.6 load-testing option; the Figure 9 throughput mode).
	FastMode bool

	// DrainTimeout bounds the wait for outstanding responses after the
	// last query is sent. Default 500ms.
	DrainTimeout time.Duration

	// Clock supplies all of the engine's time: pacing (the timing
	// wheel's tick source), retransmission deadlines, idle-connection
	// timeouts, and the drain wait. Nil means the real clock —
	// production replays are untouched. A *vclock.SimClock runs the
	// engine's timing in simulated time (the sockets stay real, so this
	// is scheduling compression, not the bit-exact netsim path).
	Clock vclock.Clock

	// Qlog, if set, streams one telemetry event per transmitted query
	// into this pipeline (client-side view of the same event stream the
	// server emits). Each querier gets its own SPSC producer.
	Qlog *qlog.Pipeline

	// OnSend, if set, observes every transmitted query with the actual
	// send time and the scheduling error versus the ideal trace time. It
	// runs just before the syscall that transmits the query, so that no
	// response can be observed ahead of its send: at is when the query
	// was handed to the kernel, the scheduling error excludes the time
	// the kernel spends on the batch, and a send that then fails is
	// followed by OnError for the same entry.
	OnSend func(e *trace.Entry, at time.Time, schedErr time.Duration)
	// OnResponse, if set, observes every response — the first answer to a
	// query in flight; duplicates and strays are only counted — with its
	// arrival time. msg is the reader's receive buffer, valid only during
	// the call: copy what must outlive it.
	OnResponse func(msg []byte, at time.Time)
	// OnError, if set, observes per-query errors (connect failures etc).
	OnError func(e *trace.Entry, err error)
}

// Stats summarizes one replay run. Every sent query ends in exactly one
// of three ways, so Sent == Responses + Giveups + Unanswered.
type Stats struct {
	Sent        int64
	Responses   int64
	Errors      int64
	ConnsOpened int64
	Retries     int64
	IdleClosed  int64
	// Unanswered counts queries that got neither an answer nor a give-up:
	// still in flight when their socket or connection closed, or
	// superseded by a later query under the same DNS ID on the same socket.
	Unanswered int64
	// UDPRetransmits counts UDP queries re-sent after a retry timeout.
	UDPRetransmits int64
	// Giveups counts UDP queries abandoned after the retransmission
	// budget was exhausted.
	Giveups int64
	// Duplicates counts responses discarded because their query was
	// already answered (e.g. a duplicated datagram on the path); they are
	// not in Responses, so duplication never double-counts.
	Duplicates int64
	// Stray counts responses discarded because their socket had no query,
	// in flight or answered, under their DNS ID — an answer that outlived
	// its query's give-up, say.
	Stray    int64
	Sources  int
	Duration time.Duration

	// LatencyCount, LatencyP50, P90 and P99 summarize query→response
	// latency: the arrival of each query's first answer minus its first
	// transmission, one sample per response. Like the wheel figures below
	// they span the engine's lifetime; LatencyCount == Responses for an
	// engine that has replayed once.
	LatencyCount int64
	LatencyP50   time.Duration
	LatencyP90   time.Duration
	LatencyP99   time.Duration

	// WheelWakeups counts the timing wheels' timed waits and WheelSpin the
	// time they then spent spinning to release instants: WheelSpin over
	// Duration near 1 means pacing is burning a core. WakeOvershootP50 and
	// P99 say how late those waits returned, over the engine's lifetime.
	// All zero for a fast-mode run without retransmissions.
	WheelWakeups     int64
	WheelSpin        time.Duration
	WakeOvershootP50 time.Duration
	WakeOvershootP99 time.Duration
}

// String renders the exit summary the CLIs print: the conservation line,
// latency, and — when there is anything to say — the retransmission and
// discarded-response counts and the wheel's waiting.
func (st *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d responses=%d giveups=%d unanswered=%d errors=%d conns=%d sources=%d duration=%v (%.0f q/s)",
		st.Sent, st.Responses, st.Giveups, st.Unanswered, st.Errors, st.ConnsOpened, st.Sources,
		st.Duration.Round(time.Millisecond), float64(st.Sent)/st.Duration.Seconds())
	fmt.Fprintf(&b, "\nlatency: n=%d p50=%v p90=%v p99=%v", st.LatencyCount, st.LatencyP50, st.LatencyP90, st.LatencyP99)
	if st.UDPRetransmits+st.Duplicates+st.Stray > 0 {
		fmt.Fprintf(&b, "\nretransmits=%d dup-responses=%d stray-responses=%d", st.UDPRetransmits, st.Duplicates, st.Stray)
	}
	if st.WheelWakeups > 0 || st.WheelSpin > 0 {
		// Spin near 100% of wall per distributor is a client burning a core.
		fmt.Fprintf(&b, "\npacing: wakeups=%d spin=%.1f%% of wall, wake overshoot p50=%v p99=%v",
			st.WheelWakeups, 100*st.WheelSpin.Seconds()/st.Duration.Seconds(),
			st.WakeOvershootP50, st.WakeOvershootP99)
	}
	return b.String()
}

// Engine replays traces against live servers.
type Engine struct {
	cfg   Config
	clock vclock.Clock
	// udpAddr is cfg.UDPTarget resolved; nil when it is empty.
	udpAddr *net.UDPAddr

	sent           atomic.Int64
	responses      atomic.Int64
	errorsCount    atomic.Int64
	connsOpened    atomic.Int64
	retries        atomic.Int64
	idleClosed     atomic.Int64
	udpRetransmits atomic.Int64
	giveups        atomic.Int64
	dupResponses   atomic.Int64
	strays         atomic.Int64
	// pend is the in-flight and unanswered tally the sockets' pending
	// tables move.
	pend pendCounts

	// latency records each response's exact query→response latency in
	// nanoseconds, straight from the pending table. Like wheel.overshoot it
	// is the engine's own until Instrument swaps in the registry's, and is
	// never reset.
	latency atomic.Pointer[obs.Histogram]
	// schedErrHist, when instrumented, records per-query scheduling error
	// (actual send time minus ideal trace time) in nanoseconds.
	schedErrHist atomic.Pointer[obs.Histogram]
	// batchSizeHist, when instrumented, records messages per batched UDP
	// send.
	batchSizeHist atomic.Pointer[obs.Histogram]
	// wheelLag is the most recent timing-wheel scheduling debt in
	// nanoseconds (how far tick processing trails the wall clock).
	wheelLag atomic.Int64
	// wheel is the wheels' wait accounting, summed over distributors. Its
	// overshoot histogram is the engine's own until Instrument swaps in
	// the registry's, and is never reset: it spans the engine's lifetime.
	wheel wheelStats

	seed maphash.Seed
}

// Instrument registers the engine's counters and histograms with reg.
// Metric reads happen at scrape time via function metrics, so the
// send/receive hot paths pay nothing beyond the atomic adds they already
// perform. Safe to call for each fresh Engine sharing one registry:
// re-registration re-points the scrape functions at the newest engine.
func (en *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("ldplayer_sent_total", "", "queries transmitted", en.sent.Load)
	reg.CounterFunc("ldplayer_responses_total", "", "responses received", en.responses.Load)
	reg.CounterFunc("ldplayer_errors_total", "", "per-query send errors", en.errorsCount.Load)
	reg.CounterFunc("ldplayer_conns_opened_total", "", "sockets and stream connections opened", en.connsOpened.Load)
	reg.CounterFunc("ldplayer_retries_total", "", "stream sends retried on a fresh connection", en.retries.Load)
	reg.CounterFunc("ldplayer_idle_closed_total", "", "stream connections closed by the idle timeout", en.idleClosed.Load)
	reg.CounterFunc("ldplayer_unanswered_total", "", "queries superseded under their DNS ID or in flight when their socket closed", en.pend.unanswered.Load)
	reg.CounterFunc("ldplayer_udp_retransmits_total", "", "UDP queries re-sent after a retry timeout", en.udpRetransmits.Load)
	reg.CounterFunc("ldplayer_giveups_total", "", "UDP queries abandoned after the retransmission budget", en.giveups.Load)
	reg.CounterFunc("ldplayer_dup_responses_total", "", "responses discarded as duplicates of an answered query", en.dupResponses.Load)
	reg.CounterFunc("ldplayer_stray_responses_total", "", "responses discarded for matching no query in flight or answered", en.strays.Load)
	reg.GaugeFunc("ldplayer_in_flight", "", "queries in the sockets' pending tables", en.pend.inFlight.Load)
	reg.GaugeFunc("ldplayer_wheel_lag_ns", "", "timing-wheel scheduling debt (ns)", en.wheelLag.Load)
	reg.GaugeFunc("ldplayer_wheel_guard_ns", "", "how far ahead of a release the timing wheel stops sleeping and spins (ns)", en.wheel.guard.Load)
	reg.CounterFunc("ldplayer_wheel_wakeups_total", "", "timing-wheel timed waits that ran to their deadline", en.wheel.wakeups.Load)
	reg.CounterFunc("ldplayer_wheel_spin_ns_total", "", "time the timing wheel spent spinning to release instants (ns)", en.wheel.spinNs.Load)
	en.wheel.overshoot.Store(reg.Histogram("ldplayer_wheel_wake_overshoot_ns", "", "how long after its deadline a timing-wheel wait returned (ns)"))
	en.latency.Store(reg.Histogram("ldplayer_rtt_ns", "", "first send to first response, per query (ns)"))
	en.schedErrHist.Store(reg.Histogram("ldplayer_sched_err_ns", "", "send scheduling error vs ideal trace time (ns)"))
	en.batchSizeHist.Store(reg.Histogram("ldplayer_send_batch_size", "", "messages per batched UDP send"))
}

// New validates cfg and creates an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Distributors <= 0 {
		cfg.Distributors = 1
	}
	if cfg.QueriersPerDistributor <= 0 {
		cfg.QueriersPerDistributor = 6
	}
	if cfg.Window <= 0 {
		cfg.Window = 4096
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 20 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 500 * time.Millisecond
	}
	if cfg.UDPRetries < 0 {
		cfg.UDPRetries = 0
	}
	if cfg.UDPRetries > 0 && cfg.UDPRetryTimeout <= 0 {
		cfg.UDPRetryTimeout = 250 * time.Millisecond
	}
	if cfg.StreamAttempts <= 0 {
		cfg.StreamAttempts = 2
	}
	if cfg.UDPTarget == "" && cfg.TCPTarget == "" && cfg.TLSTarget == "" {
		return nil, errors.New("replay: no targets configured")
	}
	if cfg.TLSTarget != "" && cfg.TLSConfig == nil {
		return nil, errors.New("replay: TLS target without TLSConfig")
	}
	en := &Engine{cfg: cfg, clock: vclock.Or(cfg.Clock), seed: maphash.MakeSeed()}
	if cfg.UDPTarget != "" {
		addr, err := net.ResolveUDPAddr("udp", cfg.UDPTarget)
		if err != nil {
			return nil, fmt.Errorf("replay: UDP target: %w", err)
		}
		en.udpAddr = addr
	}
	en.wheel.overshoot.Store(&obs.Histogram{})
	en.latency.Store(&obs.Histogram{})
	return en, nil
}

// syncPoint is the broadcast time synchronization: trace epoch and the
// real time it corresponds to.
type syncPoint struct {
	traceStart time.Time
	realStart  time.Time
}

// Replay streams r through the distribution tree until EOF or ctx
// cancellation and returns run statistics.
//
// With more than one distributor, a reader that can partition itself
// (trace.Partitioner, e.g. the LDTRC02 BlockReader) and supply the
// global trace epoch (TraceStart) is split into per-distributor shards,
// each with its own decode pipeline and reader goroutine — no central
// postman on the hot path. Otherwise the classic single reader + postman
// tree runs.
func (en *Engine) Replay(ctx context.Context, r trace.Reader) (*Stats, error) {
	en.resetCounters()
	start := en.clock.Now()

	if en.cfg.Distributors > 1 {
		if st, ok, err := en.replayShards(ctx, r, start); ok {
			return st, err
		}
	}

	// Reader: pre-loads a window of queries (its own process in the
	// paper's controller), decoding in batches.
	window := make(chan []trace.Entry, max(1, en.cfg.Window/defaultMaxBatch))
	readErr := make(chan error, 1)
	go func() {
		defer close(window)
		for {
			buf := getBatch()
			n, err := trace.ReadBatch(r, buf[:cap(buf)])
			if n > 0 {
				select {
				case window <- buf[:n]:
				case <-ctx.Done():
					putBatch(buf)
					return
				}
			} else {
				putBatch(buf)
			}
			if err != nil {
				if !errors.Is(err, io.EOF) {
					readErr <- err
				}
				return
			}
		}
	}()

	// Distributors and their querier pools.
	nd := en.cfg.Distributors
	sources := newSourceTracker()
	dists := make([]*distributor, nd)
	var wg sync.WaitGroup
	for i := range dists {
		dists[i] = newDistributor(en, i, sources)
		wg.Add(1)
		go func(d *distributor) {
			defer wg.Done()
			d.run(ctx)
		}(dists[i])
	}

	// Postman: sticky source→distributor assignment, re-batching entries
	// per destination.
	var sync0 *syncPoint
	assign := make(map[netip.Addr]int, 1024)
	scratch := make([][]trace.Entry, nd)
	var err error
	flush := func(i int) bool {
		sb := scratch[i]
		scratch[i] = nil
		select {
		case dists[i].in <- sb:
			return true
		case <-ctx.Done():
			putBatch(sb)
			err = ctx.Err()
			return false
		}
	}
loop:
	for {
		select {
		case b, ok := <-window:
			if !ok {
				break loop
			}
			if sync0 == nil && len(b) > 0 {
				ts := b[0].Time
				if p, ok := r.(traceStartProvider); ok {
					if t0, have := p.TraceStart(); have {
						ts = t0
					}
				}
				sync0 = &syncPoint{traceStart: ts, realStart: en.clock.Now()}
				for _, d := range dists {
					d.sync(sync0)
				}
			}
			if nd == 1 {
				// One distributor: no source routing to do, forward the
				// reader's batch wholesale instead of re-batching per entry.
				select {
				case dists[0].in <- b:
				case <-ctx.Done():
					putBatch(b)
					err = ctx.Err()
					break loop
				}
				continue
			}
			for k := range b {
				idx := 0
				if nd > 1 {
					src := b[k].Src.Addr()
					i, ok2 := assign[src]
					if !ok2 {
						i = int(maphash.Comparable(en.seed, src)) % nd
						if i < 0 {
							i = -i
						}
						assign[src] = i
					}
					idx = i
				}
				sb := scratch[idx]
				if sb == nil {
					sb = getBatch()
				}
				sb = append(sb, b[k])
				scratch[idx] = sb
				if len(sb) == cap(sb) {
					if !flush(idx) {
						putBatch(b)
						break loop
					}
				}
			}
			putBatch(b)
			for i := range scratch {
				if scratch[i] != nil {
					if !flush(i) {
						break loop
					}
				}
			}
		case <-ctx.Done():
			err = ctx.Err()
			break loop
		}
	}
	if err == nil {
		// The reader reports its error before it closes the window, so
		// every batch it decoded first is with the distributors by now.
		select {
		case err = <-readErr:
		default:
		}
	}
	for i := range scratch {
		if scratch[i] != nil {
			putBatch(scratch[i])
			scratch[i] = nil
		}
	}
	for _, d := range dists {
		close(d.in)
	}
	wg.Wait()
	if err == nil {
		// The reader goroutine exits silently on cancellation; surface it.
		err = ctx.Err()
	}
	return en.finish(start, sources, dists), err
}

// replayShards is Replay's scale-out path: the trace is partitioned into
// one shard per distributor, and each shard gets a private reader
// goroutine feeding its distributor directly — decode, distribution and
// send all run per shard with no cross-shard hand-off. It requires the
// reader to partition itself and to supply the global trace epoch up
// front (per-shard first entries differ, but the time-synchronization
// point t̄₁ must be shared or shards would drift apart). Returns
// ok=false when r cannot support this, and the caller falls back to the
// postman tree.
//
// Tradeoff versus the postman: source→distributor assignment follows the
// partition (block interleaving), not the sticky source hash, so one
// source whose queries span partition boundaries is emulated by sockets
// in more than one shard. Per-source ordering still holds within each
// shard, and TCP connection reuse still happens per shard; what changes
// is the exact socket count for such straddling sources.
func (en *Engine) replayShards(ctx context.Context, r trace.Reader, start time.Time) (*Stats, bool, error) {
	p, ok := r.(trace.Partitioner)
	if !ok {
		return nil, false, nil
	}
	tsp, ok := r.(traceStartProvider)
	if !ok {
		return nil, false, nil
	}
	t0, have := tsp.TraceStart()
	if !have {
		return nil, false, nil
	}
	parts, ok := p.Partition(en.cfg.Distributors)
	if !ok || len(parts) == 0 {
		return nil, false, nil
	}

	sources := newSourceTracker()
	dists := make([]*distributor, len(parts))
	sp := &syncPoint{traceStart: t0, realStart: en.clock.Now()}
	var wg sync.WaitGroup
	for i := range dists {
		dists[i] = newDistributor(en, i, sources)
		dists[i].sync(sp)
		wg.Add(1)
		go func(d *distributor) {
			defer wg.Done()
			d.run(ctx)
		}(dists[i])
	}

	readErr := make(chan error, len(parts))
	var rwg sync.WaitGroup
	for i := range parts {
		rwg.Add(1)
		go func(shard trace.Reader, d *distributor) {
			defer rwg.Done()
			defer close(d.in)
			if c, isCloser := shard.(io.Closer); isCloser {
				// Shard readers own their decode pipelines (the owner only
				// unmaps); shut them down even on a cancelled run.
				defer c.Close()
			}
			for {
				buf := getBatch()
				n, err := trace.ReadBatch(shard, buf[:cap(buf)])
				if n > 0 {
					select {
					case d.in <- buf[:n]:
					case <-ctx.Done():
						putBatch(buf)
						return
					}
				} else {
					putBatch(buf)
				}
				if err != nil {
					if !errors.Is(err, io.EOF) {
						readErr <- err
					}
					return
				}
			}
		}(parts[i], dists[i])
	}
	rwg.Wait()
	wg.Wait()
	var err error
	select {
	case err = <-readErr:
	default:
		err = ctx.Err()
	}
	return en.finish(start, sources, dists), true, err
}

// resetCounters zeroes the per-run counters so an Engine can replay more
// than once.
func (en *Engine) resetCounters() {
	en.sent.Store(0)
	en.responses.Store(0)
	en.errorsCount.Store(0)
	en.connsOpened.Store(0)
	en.retries.Store(0)
	en.idleClosed.Store(0)
	en.udpRetransmits.Store(0)
	en.giveups.Store(0)
	en.dupResponses.Store(0)
	en.strays.Store(0)
	en.pend.inFlight.Store(0)
	en.pend.unanswered.Store(0)
	en.wheel.wakeups.Store(0)
	en.wheel.spinNs.Store(0)
}

// finish is the shared run tail: wait out the response grace period,
// tear sockets down — which moves what is still in flight to unanswered —
// and assemble Stats.
func (en *Engine) finish(start time.Time, sources *sourceTracker, dists []*distributor) *Stats {
	// Give in-flight responses a grace period, then shut sockets down.
	// Only sleep while something is actually in flight: an all-answered
	// (or all-given-up) run must exit immediately, and a blackholed run
	// must terminate at the deadline rather than hang.
	deadline := en.clock.Now().Add(en.cfg.DrainTimeout)
	for en.pend.inFlight.Load() > 0 && en.clock.Now().Before(deadline) {
		en.clock.Sleep(5 * time.Millisecond)
	}
	for _, d := range dists {
		d.closeQueriers()
	}
	st := &Stats{
		Sent:           en.sent.Load(),
		Responses:      en.responses.Load(),
		Errors:         en.errorsCount.Load(),
		ConnsOpened:    en.connsOpened.Load(),
		Retries:        en.retries.Load(),
		IdleClosed:     en.idleClosed.Load(),
		Unanswered:     en.pend.unanswered.Load(),
		UDPRetransmits: en.udpRetransmits.Load(),
		Giveups:        en.giveups.Load(),
		Duplicates:     en.dupResponses.Load(),
		Stray:          en.strays.Load(),
		Sources:        sources.count(),
		Duration:       en.clock.Now().Sub(start),
		WheelWakeups:   en.wheel.wakeups.Load(),
		WheelSpin:      time.Duration(en.wheel.spinNs.Load()),
	}
	if lat := en.Latency(); lat.Count > 0 {
		st.LatencyCount = lat.Count
		st.LatencyP50 = time.Duration(lat.Quantile(0.5))
		st.LatencyP90 = time.Duration(lat.Quantile(0.9))
		st.LatencyP99 = time.Duration(lat.Quantile(0.99))
	}
	if over := en.wheel.overshoot.Load().Snapshot(); over.Count > 0 {
		st.WakeOvershootP50 = time.Duration(over.Quantile(0.5))
		st.WakeOvershootP99 = time.Duration(over.Quantile(0.99))
	}
	return st
}

// Latency snapshots the distribution behind Stats' latency figures:
// nanoseconds from each answered query's first transmission to its first
// response.
func (en *Engine) Latency() *obs.HistogramSnapshot { return en.latency.Load().Snapshot() }

// sourceTracker counts distinct original sources across the run.
type sourceTracker struct {
	mu   sync.Mutex
	seen map[netip.Addr]struct{}
}

func newSourceTracker() *sourceTracker {
	return &sourceTracker{seen: make(map[netip.Addr]struct{}, 1024)}
}

func (s *sourceTracker) note(a netip.Addr) {
	s.mu.Lock()
	s.seen[a] = struct{}{}
	s.mu.Unlock()
}

func (s *sourceTracker) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// distributor fans entries out to its querier pool, sticky by source. In
// paced mode it is the timing authority: each entry's due time goes on
// the distributor's wheel, which releases per-tick bursts to the
// queriers. In fast mode entries are re-batched per querier and handed
// straight over.
type distributor struct {
	en        *Engine
	idx       int
	in        chan []trace.Entry
	queriers  []*querier
	sources   *sourceTracker
	wheel     *wheel
	lookahead time.Duration
	sp        atomic.Pointer[syncPoint]
}

func newDistributor(en *Engine, idx int, sources *sourceTracker) *distributor {
	d := &distributor{
		en:      en,
		idx:     idx,
		in:      make(chan []trace.Entry, 8),
		sources: sources,
	}
	d.queriers = make([]*querier, en.cfg.QueriersPerDistributor)
	for i := range d.queriers {
		d.queriers[i] = newQuerier(en, fmt.Sprintf("d%d-q%d", idx, i))
	}
	// Paced bursts are sent inline on the wheel goroutine: paced mode is
	// rate-limited, not throughput-bound, and skipping the channel +
	// goroutine hop keeps the release-to-wire latency inside the pacing
	// budget. (Fast mode bypasses the wheel and uses the querier
	// goroutines via their channels.)
	d.wheel = newWheel(en.clock, defaultWheelTick, defaultWheelSlots, len(d.queriers), &en.wheelLag,
		func(qidx int32, b []trace.Entry) {
			d.queriers[qidx].sendBatch(b)
			putBatch(b)
		})
	d.wheel.stats.Store(&en.wheel)
	// Bounded lookahead: never schedule further ahead than a second (or
	// half the wheel's horizon, if smaller), so the wheel's live-item
	// footprint is proportional to rate, not trace length, and freed
	// items recycle.
	d.lookahead = min(d.wheel.horizon()/2, time.Second)
	for _, q := range d.queriers {
		q.wheel = d.wheel
	}
	return d
}

func (d *distributor) sync(sp *syncPoint) {
	d.sp.Store(sp)
	for _, q := range d.queriers {
		q.setSync(sp)
	}
}

func (d *distributor) run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, q := range d.queriers {
		wg.Add(1)
		go func(q *querier) {
			defer wg.Done()
			q.run(ctx)
		}(q)
	}
	paced := !d.en.cfg.FastMode
	nq := int32(len(d.queriers))
	assign := make(map[netip.Addr]int32, 256)
	scratch := make([][]trace.Entry, nq)
	wait := d.en.clock.NewTimer(time.Hour)
	if !wait.Stop() {
		<-wait.C()
	}
	canceled := false
	for b := range d.in {
		if canceled || ctx.Err() != nil {
			canceled = true
			putBatch(b)
			continue
		}
		sp := d.sp.Load()
		for k := range b {
			e := b[k]
			src := e.Src.Addr()
			idx, ok := assign[src]
			if !ok {
				idx = int32(maphash.Comparable(d.en.seed, src)) % nq
				if idx < 0 {
					idx = -idx
				}
				assign[src] = idx
				d.sources.note(src)
			}
			if paced && sp != nil {
				due := sp.realStart.Add(e.Time.Sub(sp.traceStart))
				if w := due.Sub(d.en.clock.Now()) - d.lookahead; w > 0 {
					wait.Reset(w)
					select {
					case <-wait.C():
					case <-ctx.Done():
						if !wait.Stop() {
							<-wait.C()
						}
						canceled = true
					}
					if canceled {
						break
					}
				}
				d.wheel.scheduleEntry(due, idx, e)
			} else {
				sb := scratch[idx]
				if sb == nil {
					sb = getBatch()
				}
				sb = append(sb, e)
				if len(sb) == cap(sb) {
					d.queriers[idx].in <- sb
					sb = nil
				}
				scratch[idx] = sb
			}
		}
		putBatch(b)
		for i, sb := range scratch {
			if sb != nil {
				d.queriers[i].in <- sb
				scratch[i] = nil
			}
		}
	}
	// Drain the wheel: every scheduled entry must be delivered (or, on
	// cancellation, discarded) before querier channels close.
	for d.wheel.pacedPending() > 0 {
		if ctx.Err() != nil {
			d.wheel.discardPaced()
		}
		d.en.clock.Sleep(d.wheel.tick)
	}
	for _, q := range d.queriers {
		close(q.in)
	}
	wg.Wait()
}

// closeQueriers stops the timing wheel — after this no retransmission can
// fire — and then tears down every querier's sockets.
func (d *distributor) closeQueriers() {
	d.wheel.stop()
	for _, q := range d.queriers {
		q.closeSockets()
	}
}
