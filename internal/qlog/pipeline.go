package qlog

import (
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/obs"
)

// Config shapes a Pipeline.
type Config struct {
	// RingSize is the per-producer ring capacity, rounded up to a power
	// of two. Default DefaultRingSize.
	RingSize int
	// BatchSize is how many events the collector moves per ring sweep.
	// Default 512.
	BatchSize int
	// Poll is the collector's idle nap when every ring is empty. Default
	// 200µs — short enough that a ring holds seconds of headroom at any
	// sane rate, long enough to cost nothing when idle.
	Poll time.Duration
	// Transformers run in order on the collector goroutine; the first one
	// to return false drops the event (counted per transformer).
	Transformers []Transformer
	// Sinks receive every surviving event batch. Sinks self-account
	// (written/dropped/errors) and must never block indefinitely: a slow
	// sink stalls the collector, rings fill, and producers shed — by
	// design — but a *stuck* sink would pin the final drain.
	Sinks []Sink
}

// Pipeline owns the rings, the collector goroutine, the transformer
// chain, and the sinks. Typical lifecycle:
//
//	p := qlog.New(cfg)
//	p.Start()
//	... hand p to authserver.Engine.SetQlog / replay.Config.Qlog ...
//	... serve ...
//	p.Close() // final drain + sink close; stop producers first
type Pipeline struct {
	cfg Config

	mu    sync.Mutex // guards ring registration (copy-on-write)
	rings atomic.Pointer[[]*ring]

	// tdrops[i] counts events dropped by cfg.Transformers[i]; written by
	// the collector, read at scrape time.
	tdrops []atomic.Int64

	sinkBusy atomic.Int64 // cumulative ns spent inside sink WriteBatch

	started atomic.Bool
	closed  atomic.Bool
	stop    chan struct{}
	done    chan struct{}
}

// New creates a Pipeline. Call Start to launch the collector.
func New(cfg Config) *Pipeline {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Microsecond
	}
	p := &Pipeline{
		cfg:    cfg,
		tdrops: make([]atomic.Int64, len(cfg.Transformers)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	p.rings.Store(&[]*ring{})
	return p
}

// Producer registers a new SPSC ring and returns its producer handle.
// Call once per emitter, before it starts emitting (engine shards take
// theirs at the first BeginBatch after SetQlog, queriers at
// construction); a handle is used by one goroutine at a time.
func (p *Pipeline) Producer() *Producer {
	r := newRing(p.cfg.RingSize)
	p.addRing(r)
	return &Producer{r: r}
}

func (p *Pipeline) addRing(r *ring) {
	p.mu.Lock()
	cur := *p.rings.Load()
	next := make([]*ring, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = r
	p.rings.Store(&next)
	p.mu.Unlock()
}

// Start launches the collector goroutine. Idempotent.
func (p *Pipeline) Start() {
	if p.started.CompareAndSwap(false, true) {
		go p.run()
	}
}

// Close drains what the rings still hold, flushes and closes every sink,
// and returns the first sink close error. Stop the producers (the
// server, the replay engine) first: events emitted after Close are
// counted as ring drops, not exported.
func (p *Pipeline) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	if p.started.Load() {
		close(p.stop)
		<-p.done
	} else {
		// Never started: drain inline so file sinks still capture
		// everything emitted before Close.
		batch := make([]Event, p.cfg.BatchSize)
		for p.sweep(batch) > 0 {
		}
	}
	var err error
	for _, s := range p.cfg.Sinks {
		if e := s.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// run is the collector loop: sweep every ring, transform, fan out;
// sleep only when everything was empty.
func (p *Pipeline) run() {
	defer close(p.done)
	batch := make([]Event, p.cfg.BatchSize)
	for {
		n := p.sweep(batch)
		select {
		case <-p.stop:
			for p.sweep(batch) > 0 {
			}
			return
		default:
		}
		if n == 0 {
			time.Sleep(p.cfg.Poll)
		}
	}
}

// sweep drains each ring once (up to one batch each) and processes what
// it finds, returning the total events moved.
func (p *Pipeline) sweep(batch []Event) int {
	total := 0
	for _, r := range *p.rings.Load() {
		n := r.drain(batch)
		if n > 0 {
			p.process(batch[:n])
			total += n
		}
	}
	return total
}

// process runs one drained batch through the transformer chain (in
// place, compacting) and hands the survivors to every sink.
func (p *Pipeline) process(evs []Event) {
	kept := 0
	for i := range evs {
		dropped := false
		for ti := range p.cfg.Transformers {
			if !p.cfg.Transformers[ti].Transform(&evs[i]) {
				p.tdrops[ti].Add(1)
				dropped = true
				break
			}
		}
		if !dropped {
			if kept != i {
				evs[kept] = evs[i]
			}
			kept++
		}
	}
	if kept == 0 || len(p.cfg.Sinks) == 0 {
		return
	}
	t0 := time.Now()
	for _, s := range p.cfg.Sinks {
		s.WriteBatch(evs[:kept])
	}
	p.sinkBusy.Add(time.Since(t0).Nanoseconds())
}

// Stats is an accounting snapshot. At quiescence (producers stopped,
// pipeline closed) the invariants hold exactly:
//
//	Published + RingDrops  == events offered by the datapath
//	Published              == TransformDrops + SinkOffered(per sink)
//	SinkWritten + SinkDropped == SinkOffered(summed)
type Stats struct {
	Published      int64 // events committed into rings
	RingDrops      int64 // events shed at full rings
	TransformDrops int64 // events dropped by the transformer chain
	SinkWritten    int64 // events successfully written, summed over sinks
	SinkDropped    int64 // events a sink shed (down conn, write error)
	SinkErrors     int64 // sink error transitions
	Depth          int64 // current ring backlog
	SinkBusyNS     int64 // cumulative ns the collector spent in sinks
}

// Stats returns the current accounting snapshot.
func (p *Pipeline) Stats() Stats {
	var st Stats
	for _, r := range *p.rings.Load() {
		st.Published += r.published()
		st.RingDrops += r.drops.Load()
		st.Depth += r.depth()
	}
	for i := range p.tdrops {
		st.TransformDrops += p.tdrops[i].Load()
	}
	for _, s := range p.cfg.Sinks {
		ss := s.Stats()
		st.SinkWritten += ss.Written
		st.SinkDropped += ss.Dropped
		st.SinkErrors += ss.Errors
	}
	st.SinkBusyNS = p.sinkBusy.Load()
	return st
}

// Instrument federates the pipeline's self-metrics into reg: event and
// drop counters by stage, per-sink written/dropped/error counters, the
// ring-depth gauge, and collector sink-busy time. Everything reads the
// existing atomics at scrape time; the datapath pays nothing.
func (p *Pipeline) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("qlog_events_total", "", "events published into qlog rings",
		func() int64 { return p.Stats().Published })
	reg.CounterFunc("qlog_dropped_total", obs.LabelValue("stage", "ring"),
		"events shed at full rings (datapath never blocks)",
		func() int64 { return p.Stats().RingDrops })
	for i, t := range p.cfg.Transformers {
		idx := i
		reg.CounterFunc("qlog_dropped_total", obs.LabelValue("stage", "transform:"+t.Name()),
			"events dropped by a transformer",
			func() int64 { return p.tdrops[idx].Load() })
	}
	for _, s := range p.cfg.Sinks {
		sink := s
		reg.CounterFunc("qlog_sink_written_total", obs.LabelValue("sink", sink.Name()),
			"events written by each sink",
			func() int64 { return sink.Stats().Written })
		reg.CounterFunc("qlog_sink_dropped_total", obs.LabelValue("sink", sink.Name()),
			"events shed by each sink (backpressure, broken peer)",
			func() int64 { return sink.Stats().Dropped })
		reg.CounterFunc("qlog_sink_errors_total", obs.LabelValue("sink", sink.Name()),
			"sink error transitions",
			func() int64 { return sink.Stats().Errors })
	}
	reg.GaugeFunc("qlog_ring_depth", "", "events waiting in rings for the collector",
		func() int64 { return p.Stats().Depth })
	reg.CounterFunc("qlog_sink_busy_ns_total", "", "collector time spent inside sinks (ns)",
		p.sinkBusy.Load)
}
