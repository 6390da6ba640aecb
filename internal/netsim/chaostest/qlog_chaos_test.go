package chaostest

import (
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/netsim"
	"ldplayer/internal/qlog"
	"ldplayer/internal/zone"
)

// flakyCollector is a TCP qlog collector that tears down its first
// connection mid-stream, forcing the TCPSink through its redial path.
// Every decoded event is counted; stream tears are expected, not fatal.
type flakyCollector struct {
	ln      net.Listener
	decoded atomic.Int64
	conns   atomic.Int64
	wg      sync.WaitGroup
}

func newFlakyCollector(t *testing.T) *flakyCollector {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &flakyCollector{ln: ln}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := c.conns.Add(1)
			c.wg.Add(1)
			go func(conn net.Conn, kill bool) {
				defer c.wg.Done()
				defer conn.Close()
				r := qlog.NewReader(conn)
				var ev qlog.Event
				for {
					if err := r.Next(&ev); err != nil {
						return // EOF, tear, or our own kill below
					}
					c.decoded.Add(1)
					if kill && c.decoded.Load() >= 20 {
						return // drop the connection mid-stream
					}
				}
			}(conn, n == 1)
		}
	}()
	return c
}

func (c *flakyCollector) close() {
	c.ln.Close()
	c.wg.Wait()
}

// TestScenarioQlogExportUnderChaos runs the batched server scenario with
// the telemetry pipeline attached and chaos on both planes: the query
// path crosses a seeded lossy UDP relay, and the qlog TCP export lands
// on a collector that kills its first connection mid-stream. The service
// invariant must be exactly the one the telemetry-free scenario proves,
// and the pipeline's books must balance: every query the engine saw is
// either a published event or a counted ring drop, and every published
// event was either written to the sink or shed with a drop counter —
// nothing blocks, nothing goes missing silently.
func TestScenarioQlogExportUnderChaos(t *testing.T) {
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

	coll := newFlakyCollector(t)
	defer coll.close()
	// Small batches: several TCP writes per round, so a killed connection
	// surfaces as a write error (detecting an RST takes a write or two)
	// while traffic is still flowing, and the sink's redial gets a shot.
	pipe := qlog.New(qlog.Config{
		BatchSize: 32,
		Sinks:     []qlog.Sink{qlog.NewTCPSink(coll.ln.Addr().String(), 200*time.Millisecond)},
	})
	pipe.Start()
	e.SetQlog(pipe)

	srv := &authserver.Server{Engine: e, UDPWorkers: 2, ReusePort: true}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}

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
			if id < 1 || id > queries || answered[id] {
				continue
			}
			answered[id] = true
			got++
		}
	}

	// Service plane: the answered-fraction invariant is unchanged by the
	// attached telemetry (same formula and tolerance as the qlog-free
	// scenario).
	want := 1 - math.Pow(1-(1-p)*(1-p), retries+1)
	frac := float64(got) / float64(queries)
	if math.Abs(frac-want) > 0.07 {
		t.Errorf("answered fraction = %.3f, want %.3f ± 0.07 (%d/%d)", frac, want, got, queries)
	}
	if rs := relay.Stats(); rs.Dropped == 0 {
		t.Error("relay dropped nothing at 25% loss; scenario is vacuous")
	}

	// Server down first (emits stop), then drain the pipeline, then stop
	// the collector so its counters are final.
	srv.Close()
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	coll.close()

	// Telemetry plane: exact books at every stage.
	st := pipe.Stats()
	es := e.Stats()
	if es.Queries != st.Published+st.RingDrops {
		t.Errorf("engine queries %d != events %d + ring drops %d",
			es.Queries, st.Published, st.RingDrops)
	}
	if st.SinkWritten+st.SinkDropped != st.Published {
		t.Errorf("sink written %d + sink dropped %d != published %d",
			st.SinkWritten, st.SinkDropped, st.Published)
	}
	dec := coll.decoded.Load()
	if dec == 0 {
		t.Error("collector decoded no events")
	}
	if dec > st.Published {
		t.Errorf("collector decoded %d > published %d", dec, st.Published)
	}
	if coll.conns.Load() < 2 {
		t.Errorf("collector saw %d connections; redial path not exercised", coll.conns.Load())
	}
}
