package authserver

import (
	"crypto/tls"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"ldplayer/internal/dnswire"
)

func startServer(t *testing.T, withTLS bool) (*Server, *tls.Config) {
	t.Helper()
	e := hierarchyEngine(t)
	s := &Server{Engine: e, IdleTimeout: 500 * time.Millisecond}
	var clientTLS *tls.Config
	tlsAddr := ""
	if withTLS {
		var err error
		s.TLSConfig, clientTLS, err = SelfSignedTLSConfig("127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		tlsAddr = "127.0.0.1:0"
	}
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0", tlsAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, clientTLS
}

func TestServerUDP(t *testing.T) {
	s, _ := startServer(t, false)
	conn, err := net.DialUDP("udp", nil, s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Localhost is not a configured view source, so expect REFUSED — which
	// still proves the full UDP path works.
	q := dnswire.NewQuery(77, "www.example.com.", dnswire.TypeA)
	wire, _ := q.Pack(nil)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := resp.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 77 || !resp.Header.QR {
		t.Errorf("header = %+v", resp.Header)
	}
	if resp.Header.Rcode != dnswire.RcodeRefused {
		t.Errorf("rcode = %v", resp.Header.Rcode)
	}
}

func TestServerUDPWithDefaultView(t *testing.T) {
	e := hierarchyEngine(t)
	// Promote the example zone to a default view so loopback clients get
	// real answers.
	exView := e.ViewFor(exNSAddr)
	if err := e.AddView(&View{Name: "default", Zones: exView.Zones}); err != nil {
		t.Fatal(err)
	}
	s := &Server{Engine: e}
	if err := s.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.DialUDP("udp", nil, s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(78, "www.example.com.", dnswire.TypeA)
	wire, _ := q.Pack(nil)
	conn.Write(wire)
	buf := make([]byte, 4096)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := resp.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 1 || resp.Answer[0].Data.String() != "192.0.2.80" {
		t.Errorf("answer = %v", resp.Answer)
	}
}

// TestServerTCPConnectionReuse sends several queries over one connection,
// the behaviour connection-oriented DNS depends on.
func TestServerTCPConnectionReuse(t *testing.T) {
	s, _ := startServer(t, false)
	conn, err := net.Dial("tcp", s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		q := dnswire.NewQuery(uint16(100+i), "www.example.com.", dnswire.TypeA)
		wire, _ := q.Pack(nil)
		if err := WriteTCPMessage(conn, wire); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		respWire, err := ReadTCPMessage(conn, new([]byte))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		var resp dnswire.Message
		if err := resp.Unpack(respWire); err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != uint16(100+i) {
			t.Errorf("query %d: ID = %d", i, resp.Header.ID)
		}
	}
	if got := s.TotalTCPConns(); got != 1 {
		t.Errorf("total TCP conns = %d, want 1 (reuse)", got)
	}
}

func TestServerTCPIdleTimeout(t *testing.T) {
	s, _ := startServer(t, false)
	conn, err := net.Dial("tcp", s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Don't send anything; the server must close the connection after the
	// idle timeout (500 ms here).
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	_, err = conn.Read(buf)
	if err == nil {
		t.Fatal("expected connection close")
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond || elapsed > 2500*time.Millisecond {
		t.Errorf("closed after %v, want ~500ms", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.OpenTCPConns() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.OpenTCPConns(); got != 0 {
		t.Errorf("open conns = %d after timeout", got)
	}
}

func TestServerTLS(t *testing.T) {
	s, clientTLS := startServer(t, true)
	conn, err := tls.Dial("tcp", s.TLSAddr().String(), clientTLS)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(200, "www.example.com.", dnswire.TypeA)
	wire, _ := q.Pack(nil)
	if err := WriteTCPMessage(conn, wire); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	respWire, err := ReadTCPMessage(conn, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := resp.Unpack(respWire); err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 200 {
		t.Errorf("ID = %d", resp.Header.ID)
	}
}

func TestServerTCPGarbageDropsConnection(t *testing.T) {
	s, _ := startServer(t, false)
	conn, err := net.Dial("tcp", s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Length prefix of zero is a protocol violation.
	conn.Write([]byte{0, 0})
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection survived zero-length frame")
	}
}

// TestServerConcurrentClients hammers the UDP listener from many
// goroutines to exercise the worker pool under contention.
func TestServerConcurrentClients(t *testing.T) {
	e := hierarchyEngine(t)
	exView := e.ViewFor(exNSAddr)
	if err := e.AddView(&View{Name: "default", Zones: exView.Zones}); err != nil {
		t.Fatal(err)
	}
	s := &Server{Engine: e, UDPWorkers: 8}
	if err := s.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients = 16
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.DialUDP("udp", nil, s.UDPAddr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			buf := make([]byte, 4096)
			for i := 0; i < perClient; i++ {
				q := dnswire.NewQuery(uint16(c*1000+i), "www.example.com.", dnswire.TypeA)
				wire, _ := q.Pack(nil)
				if _, err := conn.Write(wire); err != nil {
					errs <- err
					return
				}
				_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
				n, err := conn.Read(buf)
				if err != nil {
					errs <- err
					return
				}
				var resp dnswire.Message
				if err := resp.Unpack(buf[:n]); err != nil {
					errs <- err
					return
				}
				if resp.Header.ID != uint16(c*1000+i) {
					errs <- fmt.Errorf("client %d: wrong ID %d", c, resp.Header.ID)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := e.Stats().Queries; got != clients*perClient {
		t.Errorf("served %d queries, want %d", got, clients*perClient)
	}
}

// TestServerReusePortUDP serves through per-worker SO_REUSEPORT sockets
// (Linux) and checks queries are answered; elsewhere it checks the
// silent single-socket fallback.
func TestServerReusePortUDP(t *testing.T) {
	e := hierarchyEngine(t)
	exView := e.ViewFor(exNSAddr)
	if err := e.AddView(&View{Name: "default", Zones: exView.Zones}); err != nil {
		t.Fatal(err)
	}
	s := &Server{Engine: e, UDPWorkers: 4, ReusePort: true}
	if err := s.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if runtime.GOOS == "linux" {
		if got := len(s.udpConns); got != 4 {
			t.Errorf("udp sockets = %d, want 4 (one per worker)", got)
		}
		for i, c := range s.udpConns[1:] {
			if c.LocalAddr().String() != s.udpConns[0].LocalAddr().String() {
				t.Errorf("socket %d bound to %v, want %v", i+1, c.LocalAddr(), s.udpConns[0].LocalAddr())
			}
		}
	} else if got := len(s.udpConns); got != 1 {
		t.Errorf("udp sockets = %d, want 1 (fallback)", got)
	}
	// Many short-lived client sockets: the kernel hashes each 4-tuple to
	// some member of the reuseport group, so this exercises every socket
	// with high probability.
	for i := 0; i < 32; i++ {
		conn, err := net.DialUDP("udp", nil, s.UDPAddr())
		if err != nil {
			t.Fatal(err)
		}
		q := dnswire.NewQuery(uint16(300+i), "www.example.com.", dnswire.TypeA)
		wire, _ := q.Pack(nil)
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			conn.Close()
			t.Fatalf("query %d: %v", i, err)
		}
		var resp dnswire.Message
		if err := resp.Unpack(buf[:n]); err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != uint16(300+i) || len(resp.Answer) != 1 {
			t.Errorf("query %d: header=%+v answers=%d", i, resp.Header, len(resp.Answer))
		}
		conn.Close()
	}
}

// TestServerWildcardBindSourceView binds the UDP loop and the TCP
// listener to the wildcard address, where an IPv4 client's source arrives
// IPv4-mapped (::ffff:127.0.0.1) on a dual-stack host, and checks that it
// still selects the view registered for the plain IPv4 address.
func TestServerWildcardBindSourceView(t *testing.T) {
	e := NewEngine()
	loopback := netip.MustParseAddr("127.0.0.1")
	if err := e.AddView(&View{Name: "loopback", Sources: []netip.Addr{loopback}, Zones: hierarchyEngine(t).ViewFor(exNSAddr).Zones}); err != nil {
		t.Fatal(err)
	}
	s := &Server{Engine: e}
	if err := s.Start(":0", ":0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wire, err := dnswire.NewQuery(79, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(network string, out []byte) {
		t.Helper()
		var resp dnswire.Message
		if err := resp.Unpack(out); err != nil {
			t.Fatal(err)
		}
		if resp.Header.Rcode != dnswire.RcodeNoError || len(resp.Answer) != 1 || resp.Answer[0].Data.String() != "192.0.2.80" {
			t.Errorf("%s: rcode %v answer %v, want the loopback view's answer", network, resp.Header.Rcode, resp.Answer)
		}
	}

	udp, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: s.UDPAddr().Port})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	if _, err := udp.Write(wire); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	_ = udp.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := udp.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	check("udp", buf[:n])

	tcp, err := net.Dial("tcp4", fmt.Sprintf("127.0.0.1:%d", s.TCPAddr().Port))
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if err := WriteTCPMessage(tcp, wire); err != nil {
		t.Fatal(err)
	}
	_ = tcp.SetReadDeadline(time.Now().Add(2 * time.Second))
	out, err := ReadTCPMessage(tcp, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	check("tcp", out)
}
