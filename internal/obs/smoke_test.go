package obs_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
	"ldplayer/internal/traceg"
	"ldplayer/internal/zone"
)

// TestObsSmoke is the `make obs-smoke` end-to-end check: a live
// meta-DNS-server and a fast-mode replay engine share one registry, the
// replay runs, and the /metrics endpoint must expose non-zero series from
// both sides plus lifecycle spans on /trace.
func TestObsSmoke(t *testing.T) {
	const zoneText = `
example.com.	3600	IN	SOA	ns1.example.com. host. 1 7200 3600 1209600 300
example.com.	3600	IN	NS	ns1.example.com.
ns1.example.com.	3600	IN	A	192.0.2.1
*.example.com.	300	IN	A	192.0.2.81
`
	z, err := zone.Parse(strings.NewReader(zoneText), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	engine := authserver.NewEngine()
	if err := engine.AddView(&authserver.View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256, 1)
	engine.Instrument(reg, tracer, 4)

	srv := &authserver.Server{Engine: engine, IdleTimeout: 10 * time.Second}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	osrv, err := obs.Serve("127.0.0.1:0", reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer osrv.Close()

	en, err := replay.New(replay.Config{
		UDPTarget: srv.UDPAddr().String(),
		FastMode:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Instrument(reg)

	gen, err := traceg.Synthetic(traceg.SyntheticConfig{
		InterArrival: time.Millisecond, Duration: 200 * time.Millisecond, Clients: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := en.Replay(context.Background(), gen)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent == 0 || st.Responses == 0 {
		t.Fatalf("replay moved no traffic: %+v", st)
	}

	get := func(path string) string {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get("http://" + osrv.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	body := get("/metrics")
	value := func(series string) string {
		idx := strings.Index(body, "\n"+series+" ")
		if idx < 0 {
			return ""
		}
		line, _, _ := strings.Cut(body[idx+1:], "\n")
		return strings.TrimPrefix(line, series+" ")
	}
	// Latency comes from the pending tables, one sample per response: the
	// histogram is exact and complete, not a per-socket approximation.
	if n, r := value("ldplayer_rtt_ns_count"), value("ldplayer_responses_total"); n == "" || n != r {
		t.Errorf("ldplayer_rtt_ns_count = %q, ldplayer_responses_total = %q; want one latency sample per response", n, r)
	}
	for _, series := range []string{
		`metadns_queries_total{transport="udp"}`,
		`metadns_responses_total{rcode="NOERROR"}`,
		`metadns_view_queries_total{view="default"}`,
		"metadns_respond_latency_ns_count",
		"ldplayer_sent_total",
		"ldplayer_responses_total",
		"ldplayer_rtt_ns_count",
	} {
		idx := strings.Index(body, series)
		if idx < 0 {
			t.Errorf("/metrics missing series %s", series)
			continue
		}
		line := body[idx:]
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		if strings.HasSuffix(line, " 0") {
			t.Errorf("series never incremented: %s", line)
		}
	}

	if body := get("/trace?n=5"); !strings.Contains(body, `"kind": "query"`) {
		t.Errorf("/trace has no query spans:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"metadns_cache_hits_total"`) {
		t.Errorf("/metrics.json missing cache counters")
	}
}
