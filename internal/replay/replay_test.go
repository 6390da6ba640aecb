package replay

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/trace"
	"ldplayer/internal/zone"
)

// testServer runs a live authserver answering everything under
// example.com. via a wildcard, like the paper's synthetic-replay setup.
func testServer(t *testing.T, withTLS bool) (*authserver.Server, Config) {
	t.Helper()
	const zoneText = `
example.com.	3600	IN	SOA	ns1.example.com. host. 1 7200 3600 1209600 300
example.com.	3600	IN	NS	ns1.example.com.
ns1.example.com.	3600	IN	A	192.0.2.1
example.com.	300	IN	A	192.0.2.80
*.example.com.	300	IN	A	192.0.2.81
`
	z, err := zone.Parse(strings.NewReader(zoneText), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	e := authserver.NewEngine()
	if err := e.AddView(&authserver.View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
		t.Fatal(err)
	}
	s := &authserver.Server{Engine: e, IdleTimeout: 30 * time.Second}
	cfg := Config{}
	tlsAddr := ""
	if withTLS {
		server, client, err := authserver.SelfSignedTLSConfig("127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		s.TLSConfig = server
		cfg.TLSConfig = client
		tlsAddr = "127.0.0.1:0"
	}
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0", tlsAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	cfg.UDPTarget = s.UDPAddr().String()
	cfg.TCPTarget = s.TCPAddr().String()
	if withTLS {
		cfg.TLSTarget = s.TLSAddr().String()
	}
	return s, cfg
}

// makeTrace builds n queries spaced gap apart, cycling over nSources
// client addresses, each with a unique query name.
func makeTrace(t testing.TB, n, nSources int, gap time.Duration, proto trace.Protocol) []trace.Entry {
	t.Helper()
	base := time.Now()
	out := make([]trace.Entry, n)
	for i := range out {
		name := fmt.Sprintf("q%d.example.com.", i)
		m := dnswire.NewQuery(uint16(i), name, dnswire.TypeA)
		wire, err := m.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i % nSources / 256), byte(i % nSources)}), 5353)
		out[i] = trace.Entry{
			Time:     base.Add(time.Duration(i) * gap),
			Src:      src,
			Dst:      netip.MustParseAddrPort("198.41.0.4:53"),
			Protocol: proto,
			Message:  wire,
		}
	}
	return out
}

func TestReplayUDPBasic(t *testing.T) {
	_, cfg := testServer(t, false)
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 50, 5, time.Millisecond, trace.UDP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 50 {
		t.Errorf("sent = %d", st.Sent)
	}
	if st.Responses != 50 {
		t.Errorf("responses = %d", st.Responses)
	}
	if st.Sources != 5 {
		t.Errorf("sources = %d", st.Sources)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
}

func TestReplayTimingAccuracy(t *testing.T) {
	_, cfg := testServer(t, false)
	var mu sync.Mutex
	var errs []time.Duration
	cfg.OnSend = func(e *trace.Entry, at time.Time, schedErr time.Duration) {
		mu.Lock()
		errs = append(errs, schedErr)
		mu.Unlock()
	}
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 40, 4, 20*time.Millisecond, trace.UDP)
	if _, err := en.Replay(context.Background(), trace.NewSliceReader(entries)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 40 {
		t.Fatalf("observed %d sends", len(errs))
	}
	// Scheduling error must be small and non-negative-ish: queries are
	// never sent early by more than scheduler slop, nor late by more than
	// a few ms on an idle machine.
	late := 0
	for _, e := range errs {
		if e < -5*time.Millisecond {
			t.Errorf("query sent %v early", -e)
		}
		if e > 15*time.Millisecond {
			late++
		}
	}
	if late > len(errs)/4 {
		t.Errorf("%d/%d sends more than 15ms late", late, len(errs))
	}
}

func TestReplayPreservesInterArrival(t *testing.T) {
	_, cfg := testServer(t, false)
	var mu sync.Mutex
	var times []time.Time
	cfg.OnSend = func(e *trace.Entry, at time.Time, _ time.Duration) {
		mu.Lock()
		times = append(times, at)
		mu.Unlock()
	}
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const gap = 25 * time.Millisecond
	entries := makeTrace(t, 20, 1, gap, trace.UDP)
	if _, err := en.Replay(context.Background(), trace.NewSliceReader(entries)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) != 20 {
		t.Fatalf("sends = %d", len(times))
	}
	// Single source => single querier => sends are ordered; check gaps.
	for i := 1; i < len(times); i++ {
		got := times[i].Sub(times[i-1])
		if got < gap/2 || got > gap*2 {
			t.Errorf("inter-arrival %d = %v, want ~%v", i, got, gap)
		}
	}
}

func TestReplayTCPConnectionReuse(t *testing.T) {
	srv, cfg := testServer(t, false)
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 20, 1, time.Millisecond, trace.TCP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 20 || st.Responses != 20 {
		t.Errorf("stats = %+v", st)
	}
	if got := srv.TotalTCPConns(); got != 1 {
		t.Errorf("server saw %d connections, want 1 (same-source reuse)", got)
	}
	if st.ConnsOpened != 1 {
		t.Errorf("client opened %d conns", st.ConnsOpened)
	}
}

func TestReplayTCPDistinctSourcesDistinctConns(t *testing.T) {
	srv, cfg := testServer(t, false)
	cfg.Distributors = 2
	cfg.QueriersPerDistributor = 3
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 40, 8, time.Millisecond, trace.TCP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Responses != 40 {
		t.Errorf("responses = %d", st.Responses)
	}
	if got := srv.TotalTCPConns(); got != 8 {
		t.Errorf("server saw %d connections, want 8 (one per source)", got)
	}
}

func TestReplayTLS(t *testing.T) {
	srv, cfg := testServer(t, true)
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 10, 2, time.Millisecond, trace.TLS)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 10 || st.Responses != 10 {
		t.Errorf("stats = %+v", st)
	}
	if got := srv.TotalTCPConns(); got != 2 {
		t.Errorf("TLS connections = %d, want 2", got)
	}
}

func TestReplayClientIdleTimeoutReopens(t *testing.T) {
	srv, cfg := testServer(t, false)
	cfg.IdleTimeout = 60 * time.Millisecond
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two queries from the same source, separated by more than the client
	// idle timeout: the second must open a fresh connection.
	base := time.Now()
	mk := func(i int, at time.Time) trace.Entry {
		m := dnswire.NewQuery(uint16(i), fmt.Sprintf("idle%d.example.com.", i), dnswire.TypeA)
		wire, _ := m.Pack(nil)
		return trace.Entry{
			Time: at, Src: netip.MustParseAddrPort("10.0.0.1:5353"),
			Dst: netip.MustParseAddrPort("198.41.0.4:53"), Protocol: trace.TCP, Message: wire,
		}
	}
	entries := []trace.Entry{mk(0, base), mk(1, base.Add(300*time.Millisecond))}
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 2 {
		t.Fatalf("sent = %d (errors %d)", st.Sent, st.Errors)
	}
	if st.ConnsOpened != 2 {
		t.Errorf("conns opened = %d, want 2 (idle close forced reopen)", st.ConnsOpened)
	}
	_ = srv
}

func TestReplayFastMode(t *testing.T) {
	_, cfg := testServer(t, false)
	cfg.FastMode = true
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Timestamps spread over 100 virtual seconds; fast mode must ignore
	// them completely.
	entries := makeTrace(t, 200, 10, 500*time.Millisecond, trace.UDP)
	start := time.Now()
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 200 {
		t.Errorf("sent = %d", st.Sent)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("fast mode took %v", elapsed)
	}
}

func TestReplayNoTargetForProtocolCountsErrors(t *testing.T) {
	_, cfg := testServer(t, false)
	cfg.TCPTarget = "" // UDP-only engine
	var errCount int64
	var mu sync.Mutex
	cfg.OnError = func(e *trace.Entry, err error) {
		mu.Lock()
		errCount++
		mu.Unlock()
	}
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 5, 1, time.Millisecond, trace.TCP)
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 5 || st.Sent != 0 {
		t.Errorf("stats = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if errCount != 5 {
		t.Errorf("OnError called %d times", errCount)
	}
}

// TestNewRejectsUnresolvableUDPTarget: the UDP target is resolved once,
// in New, so a bad one fails there instead of as one OnError per source.
// The targets fail without a name lookup: a missing and an out-of-range
// port.
func TestNewRejectsUnresolvableUDPTarget(t *testing.T) {
	for _, target := range []string{"127.0.0.1", "127.0.0.1:70000"} {
		if _, err := New(Config{UDPTarget: target}); err == nil {
			t.Errorf("New accepted UDP target %q", target)
		}
	}
}

func TestReplayContextCancel(t *testing.T) {
	_, cfg := testServer(t, false)
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A long trace; cancel early.
	entries := makeTrace(t, 1000, 10, 50*time.Millisecond, trace.UDP)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	st, err := en.Replay(ctx, trace.NewSliceReader(entries))
	if err == nil {
		t.Error("expected context error")
	}
	if st.Sent >= 1000 {
		t.Errorf("sent = %d, should have been cut short", st.Sent)
	}
}

// TestRemoteDistribution exercises the TCP controller link: a controller
// feeding two client instances over loopback TCP, Figure 5 style.
func TestRemoteDistribution(t *testing.T) {
	srv, cfg := testServer(t, false)
	_ = srv

	type result struct {
		st  *Stats
		err error
	}
	results := make(chan result, 2)
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
		clientCfg := cfg
		clientCfg.Distributors = 1
		clientCfg.QueriersPerDistributor = 2
		en, err := New(clientCfg)
		if err != nil {
			t.Fatal(err)
		}
		go func(ln net.Listener, en *Engine) {
			st, err := ServeClient(ln, en)
			results <- result{st, err}
		}(ln, en)
	}

	rc, err := DialClients(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	// Sources are spread by a randomly seeded hash: with 30 of them the
	// chance that one client gets none is 2^-29 (with 6 it was 3%).
	entries := makeTrace(t, 60, 30, time.Millisecond, trace.UDP)
	if err := rc.Run(trace.NewSliceReader(entries)); err != nil {
		t.Fatal(err)
	}

	var totalSent, totalResp int64
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatal(r.err)
			}
			totalSent += r.st.Sent
			totalResp += r.st.Responses
			if r.st.Sent == 0 {
				t.Error("a client instance sent nothing; sticky distribution starved it")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("client instance did not finish")
		}
	}
	if totalSent != 60 || totalResp != 60 {
		t.Errorf("total sent=%d responses=%d", totalSent, totalResp)
	}
}

// TestSameSourceAffinity verifies all queries from one source traverse one
// socket even with many distributors and queriers.
func TestSameSourceAffinity(t *testing.T) {
	srv, cfg := testServer(t, false)
	cfg.Distributors = 4
	cfg.QueriersPerDistributor = 4
	en, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := makeTrace(t, 64, 1, 0, trace.TCP) // one source
	st, err := en.Replay(context.Background(), trace.NewSliceReader(entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 64 {
		t.Fatalf("sent = %d", st.Sent)
	}
	if got := srv.TotalTCPConns(); got != 1 {
		t.Errorf("connections = %d, want 1", got)
	}
}
