package authserver

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/netio"
	"ldplayer/internal/zone"
)

// bigZone builds a zone whose fat.big.example. TXT RRset overflows the
// classic 512-byte UDP limit, forcing TC on non-EDNS UDP queries.
func bigZone(t *testing.T) *zone.Zone {
	t.Helper()
	z := zone.New("big.example.")
	mustRR := func(rr dnswire.RR) {
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	mustRR(dnswire.RR{Name: "big.example.", Class: dnswire.ClassINET, TTL: 60, Data: dnswire.SOA{
		MName: "ns.big.example.", RName: "root.big.example.", Serial: 1,
		Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}})
	mustRR(dnswire.RR{Name: "big.example.", Class: dnswire.ClassINET, TTL: 60, Data: dnswire.NS{Host: "ns.big.example."}})
	for i := 0; i < 40; i++ {
		mustRR(dnswire.RR{Name: "fat.big.example.", Class: dnswire.ClassINET, TTL: 60,
			Data: dnswire.TXT{Strings: []string{strings.Repeat("x", 50) + string(rune('a'+i%26))}}})
	}
	return z
}

// batchEngine is the hierarchy engine plus a default view answering
// loopback clients from the example.com and big.example zones.
func batchEngine(t *testing.T) *Engine {
	t.Helper()
	e := hierarchyEngine(t)
	exView := e.ViewFor(exNSAddr)
	zones := append([]*zone.Zone{bigZone(t)}, exView.Zones...)
	if err := e.AddView(&View{Name: "default", Zones: zones}); err != nil {
		t.Fatal(err)
	}
	return e
}

// startUDP starts s on a loopback UDP port and stops it with the test.
func startUDP(t *testing.T, s *Server) *Server {
	t.Helper()
	if err := s.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// startBatchServer starts a Server with a narrow batch, so a burst spans
// several receive batches, and one SO_REUSEPORT socket per worker. Where
// netio has no sendmmsg the same loop runs a datagram at a time, so the
// same tests validate the portable path.
func startBatchServer(t *testing.T, workers int) *Server {
	t.Helper()
	return startUDP(t, &Server{
		Engine:     batchEngine(t),
		UDPWorkers: workers,
		ReusePort:  workers > 1,
		BatchSize:  8,
	})
}

// sendAndCollect fires the packed queries at the server through a
// client-side UDPBatch (so equal-size queries GSO-coalesce on the way in
// where supported) and collects responses by ID until all IDs are seen
// or the deadline passes.
func sendAndCollect(t *testing.T, s *Server, queries [][]byte, ids []uint16) map[uint16]*dnswire.Message {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cb, err := netio.NewUDPBatch(conn, len(queries), 32, 64<<10, false)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cb.Send(queries); err != nil || n != len(queries) {
		t.Fatalf("Send = %d, %v; want %d", n, err, len(queries))
	}
	want := make(map[uint16]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	got := make(map[uint16]*dnswire.Message, len(ids))
	deadline := time.Now().Add(3 * time.Second)
	for len(got) < len(want) && time.Now().Before(deadline) {
		_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := cb.Recv()
		if err != nil {
			continue // deadline tick; retry until the outer deadline
		}
		for i := 0; i < n; i++ {
			m := cb.Msg(i)
			seg := cb.SegSize(i)
			if seg <= 0 || seg >= len(m) {
				seg = len(m)
			}
			// Split GRO-coalesced responses back into messages.
			for off := 0; off < len(m); off += seg {
				end := off + seg
				if end > len(m) {
					end = len(m)
				}
				resp := new(dnswire.Message)
				if err := resp.Unpack(m[off:end]); err != nil {
					t.Fatalf("unpack response: %v", err)
				}
				if !want[resp.Header.ID] {
					t.Fatalf("unexpected response ID %d", resp.Header.ID)
				}
				got[resp.Header.ID] = resp
			}
		}
	}
	return got
}

// sameQuestionBurst packs k queries for www.example.com. A with distinct
// IDs: equal-size queries whose responses are equal-size cache hits, the
// GSO-coalescing sweet spot.
func sameQuestionBurst(t *testing.T, k int) (queries [][]byte, ids []uint16) {
	t.Helper()
	for i := 0; i < k; i++ {
		id := uint16(1000 + i)
		wire, err := dnswire.NewQuery(id, "www.example.com.", dnswire.TypeA).Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, wire)
		ids = append(ids, id)
	}
	return queries, ids
}

// TestServerBatchUDP drives the UDP datapath end to end: every query of
// a same-size burst must come back correct, and the per-shard counters
// must aggregate to the full total. The zero-value Server — what
// core.Testbed and the experiments start — rides the same loop at its
// defaults and must answer a 64-query burst completely. (GSO/GRO on
// versus off is netio's TestBatchStagedReplies; the server has no such
// knob.)
func TestServerBatchUDP(t *testing.T) {
	for _, tc := range []struct {
		name  string
		k     int
		start func(t *testing.T) *Server
	}{
		{"two reuseport workers, width 8", 100, func(t *testing.T) *Server { return startBatchServer(t, 2) }},
		{"zero-value Server", 64, func(t *testing.T) *Server { return startUDP(t, &Server{Engine: batchEngine(t)}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.start(t)
			queries, ids := sameQuestionBurst(t, tc.k)
			got := sendAndCollect(t, s, queries, ids)
			if len(got) != tc.k {
				t.Fatalf("got %d/%d responses", len(got), tc.k)
			}
			for id, resp := range got {
				if !resp.Header.QR || resp.Header.Rcode != dnswire.RcodeNoError {
					t.Fatalf("ID %d: header = %+v", id, resp.Header)
				}
				if len(resp.Answer) != 1 || resp.Answer[0].Data.String() != "192.0.2.80" {
					t.Fatalf("ID %d: answer = %v", id, resp.Answer)
				}
			}
			// Shard counters federate into the engine-wide view.
			if st := s.Engine.Stats(); st.Queries < int64(tc.k) || st.Responses < int64(tc.k) {
				t.Errorf("aggregated stats = %+v, want ≥ %d queries", st, tc.k)
			}
			if cs := s.Engine.CacheStats(); cs.Hits == 0 {
				t.Error("batch path never hit a shard cache")
			}
		})
	}
}

// TestServerBatchTruncation is the batch-path regression test for UDP
// truncation: oversized responses must carry TC within the 512-byte
// limit, and — because a TC'd response shrinks to question+OPT — must
// fall out of GSO coalescing rather than clip or inflate the full-size
// answers interleaved around them in the same batch.
func TestServerBatchTruncation(t *testing.T) {
	s := startBatchServer(t, 1)
	const pairs = 20
	var queries [][]byte
	var ids []uint16
	for i := 0; i < pairs; i++ {
		bigID, smallID := uint16(2*i), uint16(2*i+1)
		bw, err := dnswire.NewQuery(bigID, "fat.big.example.", dnswire.TypeTXT).Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := dnswire.NewQuery(smallID, "www.example.com.", dnswire.TypeA).Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, bw, sw)
		ids = append(ids, bigID, smallID)
	}
	got := sendAndCollect(t, s, queries, ids)
	if len(got) != 2*pairs {
		t.Fatalf("got %d/%d responses", len(got), 2*pairs)
	}
	for id, resp := range got {
		if id%2 == 0 { // oversized TXT query, no EDNS
			if !resp.Header.TC {
				t.Fatalf("ID %d: oversized response not truncated", id)
			}
			if len(resp.Answer) != 0 {
				t.Fatalf("ID %d: truncated response carries %d answers", id, len(resp.Answer))
			}
		} else { // small A query
			if resp.Header.TC {
				t.Fatalf("ID %d: small response truncated", id)
			}
			if len(resp.Answer) != 1 || resp.Answer[0].Data.String() != "192.0.2.80" {
				t.Fatalf("ID %d: answer = %v", id, resp.Answer)
			}
		}
	}
	if st := s.Engine.Stats(); st.Truncated < pairs {
		t.Errorf("aggregated Truncated = %d, want ≥ %d", st.Truncated, pairs)
	}
}

// TestShardAppendRespondAllocs pins the shard cache-hit path at ≤1
// allocation per query. With the response appended into a caller-reused
// slab the steady state is zero; the ≤1 budget leaves room for the
// platform's map-probe internals.
func TestShardAppendRespondAllocs(t *testing.T) {
	e := hierarchyEngine(t)
	sh := e.NewShard()
	wire, err := dnswire.NewQuery(9, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]byte, 0, 4096)
	// Warm the shard cache.
	if _, err := sh.AppendRespond(slab, wire, exNSAddr, UDP); err != nil {
		t.Fatal(err)
	}
	sh.EndBatch()
	allocs := testing.AllocsPerRun(1000, func() {
		out, err := sh.AppendRespond(slab[:0], wire, exNSAddr, UDP)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("empty response")
		}
	})
	if allocs > 1 {
		t.Errorf("shard cache-hit allocs/op = %.2f, want ≤ 1", allocs)
	}
	if cs := e.CacheStats(); cs.Hits == 0 {
		t.Fatal("shard path never hit its cache")
	}
}

// TestShardsConcurrent hammers several shards from their own goroutines
// while the scrape-side aggregation and a cache-capacity change run
// concurrently. Under -race this proves the shard isolation contract: no
// cross-shard mutable state on the hot path, scrape reads only atomics.
func TestShardsConcurrent(t *testing.T) {
	e := hierarchyEngine(t)
	exView := e.ViewFor(exNSAddr)
	if err := e.AddView(&View{Name: "default", Zones: exView.Zones}); err != nil {
		t.Fatal(err)
	}
	const shards, perShard = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		sh := e.NewShard()
		wg.Add(1)
		go func(g int, sh *EngineShard) {
			defer wg.Done()
			slab := make([]byte, 0, 4096)
			for i := 0; i < perShard; i++ {
				var q *dnswire.Message
				if i%3 == 0 {
					// Unique miss → NXDOMAIN via the slow path.
					q = dnswire.NewQuery(uint16(i), fmt.Sprintf("m%d-%d.example.com.", g, i), dnswire.TypeA)
				} else {
					q = dnswire.NewQuery(uint16(i), "www.example.com.", dnswire.TypeA)
				}
				wire, err := q.Pack(nil)
				if err != nil {
					t.Error(err)
					return
				}
				out, err := sh.AppendRespond(slab[:0], wire, clientAddr, UDP)
				if err != nil || len(out) == 0 {
					t.Errorf("shard %d query %d: %v", g, i, err)
					return
				}
				if i%32 == 31 {
					sh.EndBatch()
					sh.BeginBatch()
				}
			}
			sh.EndBatch()
		}(g, sh)
	}
	// Concurrent scrapes and a capacity change mid-flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = e.Stats()
			_ = e.CacheStats()
			if i == 25 {
				e.SetResponseCacheCap(64)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	if st := e.Stats(); st.Queries != shards*perShard {
		t.Errorf("aggregated queries = %d, want %d", st.Queries, shards*perShard)
	}
}
