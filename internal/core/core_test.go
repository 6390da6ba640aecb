package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"ldplayer/internal/mutate"
	"ldplayer/internal/trace"
	"ldplayer/internal/traceg"
	"ldplayer/internal/zone"
)

const wildcardZone = `
example.com.	3600	IN	SOA	ns1.example.com. host. 1 7200 3600 1209600 300
example.com.	3600	IN	NS	ns1.example.com.
ns1.example.com.	3600	IN	A	192.0.2.1
*.example.com.	300	IN	A	192.0.2.81
`

func newPlayer(t *testing.T, cfg Config) *Player {
	t.Helper()
	z, err := zone.Parse(strings.NewReader(wildcardZone), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Zones = append(cfg.Zones, z)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func synTrace(t *testing.T, gap time.Duration, dur time.Duration) trace.Reader {
	t.Helper()
	g, err := traceg.Synthetic(traceg.SyntheticConfig{
		InterArrival: gap, Duration: dur, Clients: 20, Seed: 1,
		Start: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlayerEndToEndUDP(t *testing.T) {
	p := newPlayer(t, Config{})
	rep, err := p.Replay(context.Background(), synTrace(t, 5*time.Millisecond, 500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 100 {
		t.Errorf("sent = %d", rep.Sent)
	}
	if rep.Responses != rep.Sent {
		t.Errorf("responses = %d of %d", rep.Responses, rep.Sent)
	}
	if rep.Latency.N != int(rep.Sent) {
		t.Errorf("latency samples = %d, want one per query", rep.Latency.N)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P50 > 0.1 {
		t.Errorf("median latency = %v", rep.Latency.P50)
	}
	// Timing error on an idle machine stays within the paper's ±2.5ms
	// quartile band (generously doubled for CI noise).
	if rep.TimingError.P25 < -0.005 || rep.TimingError.P75 > 0.01 {
		t.Errorf("timing error quartiles = %+v", rep.TimingError)
	}
	if rep.ServerStats.Queries != 100 {
		t.Errorf("server queries = %d", rep.ServerStats.Queries)
	}
	if len(rep.SendRates) == 0 {
		t.Error("no send-rate series")
	}
}

func TestPlayerMutationToTCP(t *testing.T) {
	p := newPlayer(t, Config{
		EnableTCP: true,
		Mutations: []mutate.Mutation{mutate.SetProtocol(trace.TCP)},
	})
	rep, err := p.Replay(context.Background(), synTrace(t, 2*time.Millisecond, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 100 || rep.Responses != 100 {
		t.Errorf("stats = %+v", rep.Stats)
	}
	if rep.Latency.N != int(rep.Sent) {
		t.Errorf("latency samples = %d, want one per query", rep.Latency.N)
	}
	if rep.ConnsOpened == 0 || rep.ConnsOpened > 20 {
		t.Errorf("conns opened = %d, want ~#sources", rep.ConnsOpened)
	}
	if got := p.Server.TotalTCPConns(); got != rep.ConnsOpened {
		t.Errorf("server conns %d != client conns %d", got, rep.ConnsOpened)
	}
}

func TestPlayerTLS(t *testing.T) {
	p := newPlayer(t, Config{
		EnableTLS: true,
		Mutations: []mutate.Mutation{mutate.SetProtocol(trace.TLS)},
	})
	rep, err := p.Replay(context.Background(), synTrace(t, 4*time.Millisecond, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 50 || rep.Responses != 50 {
		t.Errorf("stats = %+v", rep.Stats)
	}
}

func TestPlayerInterArrivalSeries(t *testing.T) {
	p := newPlayer(t, Config{})
	rep, err := p.Replay(context.Background(), synTrace(t, 10*time.Millisecond, 400*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SendInterArrivals) != int(rep.Sent)-1 {
		t.Fatalf("gaps = %d", len(rep.SendInterArrivals))
	}
}
