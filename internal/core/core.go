// Package core is LDplayer's top-level orchestration (Figure 1): it wires
// zones into a meta-DNS-server, stands up the distributed query engine
// against it, threads an optional mutation pipeline into the input, and
// collects the measurements the evaluation relies on — per-query timing
// error, send rates, response latency, and server-side statistics.
// Timing error and send rates are observed through the engine's OnSend;
// latency is the engine's own, measured per query at its pending tables
// on every run (§4.2 matched responses by a unique name because its
// client could not; this one matches them by socket and DNS ID).
package core

import (
	"context"
	"sync"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/metrics"
	"ldplayer/internal/mutate"
	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
	"ldplayer/internal/zone"
)

// Config assembles a Player.
type Config struct {
	// Zones are served through a default (match-all) view; use Views for
	// split-horizon hierarchy emulation.
	Zones []*zone.Zone
	// Views configure split-horizon service (§2.4).
	Views []*authserver.View

	// EnableTCP and EnableTLS add the respective listeners; UDP is
	// always on.
	EnableTCP bool
	EnableTLS bool
	// ServerIdleTimeout is the server-side connection timeout.
	ServerIdleTimeout time.Duration

	// Engine carries the replay-engine knobs (distributors, queriers,
	// idle timeout, fast mode). Targets and TLS material are filled in by
	// Start.
	Engine replay.Config

	// Mutations transform the input stream before replay (§2.5).
	Mutations []mutate.Mutation
}

// Player owns a running server and replay engine.
type Player struct {
	cfg    Config
	Server *authserver.Server
	engine *replay.Engine
}

// Report summarizes one replay run.
type Report struct {
	replay.Stats
	// TimingError summarizes per-query scheduling error in seconds
	// (Figure 6's quantity).
	TimingError metrics.Summary
	// SendInterArrivals are the observed gaps between consecutive sends
	// in seconds (Figure 7's replayed series).
	SendInterArrivals []float64
	// SendRates are per-second send counts (Figure 8's replayed series).
	SendRates []float64
	// Latency summarizes query→response latency in seconds (§4.2), one
	// sample per response, from the engine's pending tables. Quantiles, Min
	// and Max are accurate to a histogram bucket (12.5% of the value), Mean
	// is exact, and Std, which a histogram does not keep, stays 0.
	Latency metrics.Summary
	// ServerStats snapshots the authoritative engine's counters.
	ServerStats authserver.Stats
}

// New builds a Player. Call Start before Replay and Close afterwards.
func New(cfg Config) (*Player, error) {
	engine := authserver.NewEngine()
	for _, v := range cfg.Views {
		if err := engine.AddView(v); err != nil {
			return nil, err
		}
	}
	if len(cfg.Zones) > 0 {
		if err := engine.AddView(&authserver.View{Name: "default", Zones: cfg.Zones}); err != nil {
			return nil, err
		}
	}
	if cfg.ServerIdleTimeout <= 0 {
		cfg.ServerIdleTimeout = authserver.DefaultIdleTimeout
	}
	p := &Player{
		cfg:    cfg,
		Server: &authserver.Server{Engine: engine, IdleTimeout: cfg.ServerIdleTimeout},
	}
	return p, nil
}

// Start binds the server listeners on loopback and configures the replay
// engine's targets.
func (p *Player) Start() error {
	tcpAddr, tlsAddr := "", ""
	if p.cfg.EnableTCP {
		tcpAddr = "127.0.0.1:0"
	}
	if p.cfg.EnableTLS {
		serverTLS, clientTLS, err := authserver.SelfSignedTLSConfig("127.0.0.1")
		if err != nil {
			return err
		}
		p.Server.TLSConfig = serverTLS
		p.cfg.Engine.TLSConfig = clientTLS
		tlsAddr = "127.0.0.1:0"
	}
	if err := p.Server.Start("127.0.0.1:0", tcpAddr, tlsAddr); err != nil {
		return err
	}
	p.cfg.Engine.UDPTarget = p.Server.UDPAddr().String()
	if p.cfg.EnableTCP {
		p.cfg.Engine.TCPTarget = p.Server.TCPAddr().String()
	}
	if p.cfg.EnableTLS {
		p.cfg.Engine.TLSTarget = p.Server.TLSAddr().String()
	}
	return nil
}

// Close shuts the server down.
func (p *Player) Close() {
	if p.Server != nil {
		p.Server.Close()
	}
}

// Replay runs r through the mutation pipeline and the query engine and
// returns the measurement report.
func (p *Player) Replay(ctx context.Context, r trace.Reader) (*Report, error) {
	var (
		mu        sync.Mutex
		schedErrs []float64
		sendTimes []time.Time
	)
	rates := metrics.NewRateCounter(time.Second)

	cfg := p.cfg.Engine
	userOnSend := cfg.OnSend
	cfg.OnSend = func(e *trace.Entry, at time.Time, schedErr time.Duration) {
		mu.Lock()
		schedErrs = append(schedErrs, schedErr.Seconds())
		sendTimes = append(sendTimes, at)
		mu.Unlock()
		rates.Add(at)
		if userOnSend != nil {
			userOnSend(e, at, schedErr)
		}
	}
	engine, err := replay.New(cfg)
	if err != nil {
		return nil, err
	}
	p.engine = engine

	input := r
	if len(p.cfg.Mutations) > 0 {
		input = mutate.NewPipeline(p.cfg.Mutations...).Reader(r)
	}
	stats, err := engine.Replay(ctx, input)
	if err != nil {
		return nil, err
	}

	mu.Lock()
	defer mu.Unlock()
	var gaps []float64
	for i := 1; i < len(sendTimes); i++ {
		gaps = append(gaps, sendTimes[i].Sub(sendTimes[i-1]).Seconds())
	}
	return &Report{
		Stats:             *stats,
		TimingError:       metrics.Summarize(schedErrs),
		SendInterArrivals: gaps,
		SendRates:         rates.Rates(),
		Latency:           latencySummary(engine.Latency()),
		ServerStats:       p.Server.Engine.Stats(),
	}, nil
}

// latencySummary renders the engine's latency histogram (nanoseconds) as
// the seconds Summary the figures use.
func latencySummary(h *obs.HistogramSnapshot) metrics.Summary {
	if h.Count == 0 {
		return metrics.Summary{}
	}
	q := func(p float64) float64 { return h.Quantile(p) / 1e9 }
	return metrics.Summary{
		N:   int(h.Count),
		Min: q(0), P5: q(0.05), P25: q(0.25), P50: q(0.5), P75: q(0.75), P95: q(0.95), Max: q(1),
		Mean: float64(h.Sum) / float64(h.Count) / 1e9,
	}
}
