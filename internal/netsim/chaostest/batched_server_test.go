package chaostest

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/netsim"
	"ldplayer/internal/zone"
)

// TestScenarioBatchedServerThroughLossyRelay covers the batched UDP
// datapath with chaos in front of real sockets: a live Server on the
// sendmmsg/recvmmsg+GSO path behind a seeded lossy UDPRelay (the same
// relay `metadns -impair` deploys). A round-based client retransmits
// unanswered queries up to r times; with per-attempt drop p applied
// independently to each crossing (query and response), the answered
// fraction must approach 1 − (1 − (1−p)²)^(r+1), every response that
// does arrive must be a correct, uncorrupted answer, and the per-shard
// counters must still federate into a consistent engine-wide view.
func TestScenarioBatchedServerThroughLossyRelay(t *testing.T) {
	const (
		p       = 0.25
		retries = 2
		queries = 300
	)
	z, err := zone.Parse(strings.NewReader(zoneText), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	e := authserver.NewEngine()
	if err := e.AddView(&authserver.View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
		t.Fatal(err)
	}
	srv := &authserver.Server{
		Engine:     e,
		UDPWorkers: 2,
		ReusePort:  true,
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	relay, err := netsim.NewUDPRelay("127.0.0.1:0", srv.UDPAddr().String(),
		netsim.Impairment{Drop: p, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	conn, err := net.Dial("udp", relay.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	wires := make([][]byte, queries)
	for i := range wires {
		w, err := dnswire.NewQuery(uint16(i+1), "q.example.com.", dnswire.TypeA).Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = w
	}
	answered := make([]bool, queries+1)
	got := 0
	buf := make([]byte, 4096)
	for round := 0; round <= retries && got < queries; round++ {
		for i, w := range wires {
			if answered[i+1] {
				continue
			}
			if _, err := conn.Write(w); err != nil {
				t.Fatal(err)
			}
		}
		// Collect this round's survivors until the link goes quiet.
		deadline := time.Now().Add(2 * time.Second)
		for got < queries && time.Now().Before(deadline) {
			_ = conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
			n, err := conn.Read(buf)
			if err != nil {
				break // quiet: everything still unanswered was dropped
			}
			var resp dnswire.Message
			if err := resp.Unpack(buf[:n]); err != nil {
				t.Fatalf("corrupt response through drop-only relay: %v", err)
			}
			id := int(resp.Header.ID)
			if id < 1 || id > queries {
				t.Fatalf("response ID %d out of range", id)
			}
			if answered[id] {
				continue // late duplicate from a retransmitted query
			}
			if !resp.Header.QR || resp.Header.Rcode != dnswire.RcodeNoError ||
				len(resp.Answer) != 1 || resp.Answer[0].Data.String() != "192.0.2.81" {
				t.Fatalf("ID %d: bad answer %+v", id, resp)
			}
			answered[id] = true
			got++
		}
	}

	// Each attempt must survive two independent p-crossings, so the
	// per-attempt success is (1−p)² and r+1 attempts give
	// 1 − (1 − (1−p)²)^(r+1) ≈ 0.916 at p=0.25, r=2.
	want := 1 - math.Pow(1-(1-p)*(1-p), retries+1)
	frac := float64(got) / float64(queries)
	// Binomial sd at N=300 is ~0.016; 0.07 is a >4-sigma tolerance.
	if math.Abs(frac-want) > 0.07 {
		t.Errorf("answered fraction = %.3f, want %.3f ± 0.07 (%d/%d)", frac, want, got, queries)
	}
	if rs := relay.Stats(); rs.Dropped == 0 {
		t.Error("relay dropped nothing at 25% loss; scenario is vacuous")
	}
	// Shard counters federate: the server answered at least every query
	// the client saw, and never more than the attempts that reached it.
	st := e.Stats()
	if st.Responses < int64(got) {
		t.Errorf("engine responses = %d < client received %d", st.Responses, got)
	}
	if rs := relay.Stats(); st.Queries > rs.Offered {
		t.Errorf("engine queries = %d > relay offered %d", st.Queries, rs.Offered)
	}
}
