package sysmodel

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/metrics"
	"ldplayer/internal/trace"
)

// mkTrace builds queries at fixed gaps: client i of nClients, protocol p.
func mkTrace(t *testing.T, n, nClients int, gap time.Duration, p trace.Protocol) []trace.Entry {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	out := make([]trace.Entry, n)
	for i := range out {
		m := dnswire.NewQuery(uint16(i), "example.com.", dnswire.TypeA)
		wire, err := m.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = trace.Entry{
			Time:     base.Add(time.Duration(i) * gap),
			Src:      netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i % nClients >> 8), byte(i % nClients)}), 5353),
			Dst:      netip.MustParseAddrPort("192.0.2.53:53"),
			Protocol: p,
			Message:  wire,
		}
	}
	return out
}

func simulate(t *testing.T, entries []trace.Entry, cfg Config) *Result {
	t.Helper()
	cfg.KeepLatencies = true
	res, err := Simulate(trace.NewSliceReader(entries), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUDPLatencyIsOneRTT(t *testing.T) {
	const rtt = 40 * time.Millisecond
	res := simulate(t, mkTrace(t, 100, 10, time.Millisecond, trace.UDP), Config{RTT: rtt})
	for _, s := range res.Latencies {
		if math.Abs(s.Seconds-rtt.Seconds()) > 1e-9 {
			t.Fatalf("UDP latency = %v, want %v", s.Seconds, rtt.Seconds())
		}
	}
	if res.ConnsOpened != 0 {
		t.Errorf("UDP opened %d connections", res.ConnsOpened)
	}
}

func TestTCPFreshVersusReusedLatency(t *testing.T) {
	const rtt = 100 * time.Millisecond
	// One client, two queries far enough apart to not queue but close
	// enough to reuse.
	entries := mkTrace(t, 2, 1, 2*time.Second, trace.TCP)
	res := simulate(t, entries, Config{RTT: rtt, IdleTimeout: 20 * time.Second})
	if len(res.Latencies) != 2 {
		t.Fatalf("latencies = %d", len(res.Latencies))
	}
	fresh, reused := res.Latencies[0].Seconds, res.Latencies[1].Seconds
	if math.Abs(fresh-2*rtt.Seconds()) > 1e-9 {
		t.Errorf("fresh TCP latency = %.3f, want 2 RTT = %.3f", fresh, 2*rtt.Seconds())
	}
	if math.Abs(reused-rtt.Seconds()) > 1e-9 {
		t.Errorf("reused TCP latency = %.3f, want 1 RTT", reused)
	}
	if res.ConnsOpened != 1 {
		t.Errorf("conns opened = %d", res.ConnsOpened)
	}
}

func TestTLSFreshLatencyIsFourRTTPlusCompute(t *testing.T) {
	const rtt = 50 * time.Millisecond
	const crypto = 3 * time.Millisecond
	entries := mkTrace(t, 1, 1, time.Second, trace.TLS)
	res := simulate(t, entries, Config{RTT: rtt, TLSComputeLatency: crypto})
	want := 4*rtt.Seconds() + crypto.Seconds()
	if got := res.Latencies[0].Seconds; math.Abs(got-want) > 1e-9 {
		t.Errorf("fresh TLS latency = %.4f, want %.4f", got, want)
	}
}

func TestQueryDuringHandshakeQueues(t *testing.T) {
	const rtt = 100 * time.Millisecond
	// Two queries 10ms apart: the second arrives mid-handshake and must
	// wait for it, landing between 1 and 2 RTT.
	entries := mkTrace(t, 2, 1, 10*time.Millisecond, trace.TCP)
	res := simulate(t, entries, Config{RTT: rtt})
	second := res.Latencies[1].Seconds
	want := (rtt - 10*time.Millisecond + rtt).Seconds() // handshake remainder + 1 RTT
	if math.Abs(second-want) > 1e-9 {
		t.Errorf("queued query latency = %.3f, want %.3f", second, want)
	}
}

func TestIdleTimeoutClosesAndTimeWaitExpires(t *testing.T) {
	const gap = 30 * time.Second
	// One client, queries 30s apart with a 10s idle timeout: each query
	// opens a fresh connection.
	entries := mkTrace(t, 4, 1, gap, trace.TCP)
	cfg := Config{RTT: time.Millisecond, IdleTimeout: 10 * time.Second, TimeWait: 60 * time.Second, SampleEvery: time.Second}
	res := simulate(t, entries, cfg)
	if res.ConnsOpened != 4 {
		t.Errorf("conns opened = %d, want 4", res.ConnsOpened)
	}
	// Established gauge never exceeds 1; TIME_WAIT reaches >= 1 and stays
	// bounded by the 60s residence over 30s gaps (max 2).
	for _, p := range res.Established.Points() {
		if p.V > 1 {
			t.Errorf("established = %v at %v", p.V, p.T)
		}
	}
	maxTW := 0.0
	for _, p := range res.TimeWait.Points() {
		if p.V > maxTW {
			maxTW = p.V
		}
	}
	if maxTW < 1 || maxTW > 2 {
		t.Errorf("max TIME_WAIT = %v, want 1..2", maxTW)
	}
}

func TestEstablishedGrowsWithTimeout(t *testing.T) {
	// 20 clients round-robin with 1s entry gaps: each client returns
	// every 20s. A 5s timeout closes the connection between visits; a
	// 40s timeout keeps all 20 alive.
	entries := mkTrace(t, 2000, 20, time.Second, trace.TCP)
	est := func(timeout time.Duration) float64 {
		res := simulate(t, entries, Config{RTT: time.Millisecond, IdleTimeout: timeout, SampleEvery: 10 * time.Second})
		return res.Established.SteadyState(100 * time.Second).P50
	}
	e5, e40 := est(5*time.Second), est(40*time.Second)
	if !(e40 > e5) {
		t.Errorf("established: 5s=%.1f 40s=%.1f, want growth with timeout", e5, e40)
	}
	if e40 < 15 { // all 20 clients revisit within 20s < 40s
		t.Errorf("established at 40s timeout = %.1f, want ~20", e40)
	}
}

func TestMemoryModelCalibration(t *testing.T) {
	m := DefaultModel()
	// At the paper's operating point our B-Root workload model produces
	// ~98k established and ~276k TIME_WAIT connections at a 20 s timeout
	// (`ldplayer experiment -name fig13|fig14 -paper-scale`); the constants
	// must put that at the paper's measured 15 GB for TCP and ~18 GB for
	// TLS.
	memTCP := m.BaseMemory + 98_000*m.PerConnTCP + 276_000*m.PerTimeWait
	if gb := float64(memTCP) / (1 << 30); gb < 13.5 || gb > 16.5 {
		t.Errorf("calibrated TCP memory = %.1f GB, want ~15", gb)
	}
	memTLS := memTCP + 98_000*m.PerConnTLSExtra
	if gb := float64(memTLS) / (1 << 30); gb < 16.5 || gb > 19.5 {
		t.Errorf("calibrated TLS memory = %.1f GB, want ~18", gb)
	}
}

func TestCPUOrderingUDPAboveTCP(t *testing.T) {
	// Same workload over UDP vs TCP: the calibrated model must reproduce
	// the paper's ordering (UDP-dominated baseline > all-TCP).
	mkP := func(p trace.Protocol) []trace.Entry { return mkTrace(t, 20000, 50, time.Millisecond, p) }
	cpu := func(p trace.Protocol) float64 {
		res := simulate(t, mkP(p), Config{RTT: time.Millisecond, SampleEvery: 5 * time.Second})
		return res.CPUPercent.SteadyState(5 * time.Second).P50
	}
	udp, tcp, tls := cpu(trace.UDP), cpu(trace.TCP), cpu(trace.TLS)
	if !(udp > tcp) {
		t.Errorf("CPU: udp=%.2f%% tcp=%.2f%%, want udp > tcp", udp, tcp)
	}
	if !(tls > tcp) {
		t.Errorf("CPU: tls=%.2f%% tcp=%.2f%%, want tls > tcp", tls, tcp)
	}
}

func TestNagleStallsAlternateBackToBackResponses(t *testing.T) {
	const rtt = 100 * time.Millisecond
	// Three rapid queries on one connection produce back-to-back
	// responses; delayed ACKs cover every second segment, so exactly the
	// middle response stalls.
	entries := mkTrace(t, 3, 1, time.Millisecond, trace.TCP)
	with := simulate(t, entries, Config{RTT: rtt, Nagle: true})
	without := simulate(t, entries, Config{RTT: rtt})
	if w, wo := with.Latencies[1].Seconds, without.Latencies[1].Seconds; w <= wo {
		t.Errorf("second response: Nagle latency %.3f <= plain %.3f", w, wo)
	}
	if w, wo := with.Latencies[2].Seconds, without.Latencies[2].Seconds; w > wo+1e-9 {
		t.Errorf("third response: stalled (%.3f > %.3f) though its ACK was immediate", w, wo)
	}
}

func TestBandwidthUsesResponder(t *testing.T) {
	entries := mkTrace(t, 1000, 10, time.Millisecond, trace.UDP)
	res := simulate(t, entries, Config{
		RTT:         time.Millisecond,
		SampleEvery: 500 * time.Millisecond,
		Responder:   func(q []byte, src netip.Addr) int { return 500 },
	})
	if res.ResponseBytes != 500_000 {
		t.Errorf("response bytes = %d", res.ResponseBytes)
	}
	// 1000 q/s * 500 B = 4 Mbit/s.
	bw := metrics.Summarize(res.BandwidthMb.Values())
	if bw.P50 < 3 || bw.P50 > 5 {
		t.Errorf("bandwidth median = %.2f Mb/s, want ~4", bw.P50)
	}
}

func TestFilterLatenciesAndClientLoad(t *testing.T) {
	// 2 clients: client 0 sends 100 queries, client 1 sends 5.
	base := time.Unix(0, 0)
	var entries []trace.Entry
	mk := func(client byte, i int) trace.Entry {
		m := dnswire.NewQuery(uint16(i), "x.example.", dnswire.TypeA)
		wire, _ := m.Pack(nil)
		return trace.Entry{
			Time: base.Add(time.Duration(i) * 10 * time.Millisecond),
			Src:  netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, client}), 1),
			Dst:  netip.MustParseAddrPort("192.0.2.53:53"), Protocol: trace.UDP, Message: wire,
		}
	}
	for i := 0; i < 100; i++ {
		entries = append(entries, mk(0, i))
	}
	for i := 100; i < 105; i++ {
		entries = append(entries, mk(1, i))
	}
	res := simulate(t, entries, Config{RTT: 10 * time.Millisecond})
	nonBusy := FilterLatencies(res, func(c int) bool { return c < 50 })
	if len(nonBusy) != 5 {
		t.Errorf("non-busy latencies = %d, want 5", len(nonBusy))
	}
	cdf := ClientLoadCDF(res)
	if cdf.N() != 2 || cdf.At(5) != 0.5 {
		t.Errorf("client-load CDF: N=%d At(5)=%v", cdf.N(), cdf.At(5))
	}
}

func TestProtocolSwitchReopens(t *testing.T) {
	// Same client switching TCP->TLS must not reuse the TCP connection.
	base := time.Unix(0, 0)
	m := dnswire.NewQuery(1, "x.example.", dnswire.TypeA)
	wire, _ := m.Pack(nil)
	src := netip.MustParseAddrPort("10.0.0.1:1")
	dst := netip.MustParseAddrPort("192.0.2.53:53")
	entries := []trace.Entry{
		{Time: base, Src: src, Dst: dst, Protocol: trace.TCP, Message: wire},
		{Time: base.Add(time.Second), Src: src, Dst: dst, Protocol: trace.TLS, Message: wire},
	}
	res := simulate(t, entries, Config{RTT: 10 * time.Millisecond})
	if res.ConnsOpened != 2 {
		t.Errorf("conns opened = %d, want 2", res.ConnsOpened)
	}
}

func TestPerClientRTTDistribution(t *testing.T) {
	// Two clients alternate; one is 10ms away, the other 200ms.
	entries := mkTrace(t, 40, 2, 50*time.Millisecond, trace.UDP)
	res := simulate(t, entries, Config{
		RTTFor: func(c netip.Addr) time.Duration {
			if c.As4()[3] == 0 {
				return 10 * time.Millisecond
			}
			return 200 * time.Millisecond
		},
	})
	var near, far int
	for _, s := range res.Latencies {
		switch {
		case math.Abs(s.Seconds-0.010) < 1e-9:
			near++
		case math.Abs(s.Seconds-0.200) < 1e-9:
			far++
		default:
			t.Fatalf("unexpected latency %v", s.Seconds)
		}
	}
	if near != 20 || far != 20 {
		t.Errorf("near=%d far=%d", near, far)
	}
}

// addrPortForClient builds a stable synthetic client address.
func addrPortForClient(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 5353)
}
