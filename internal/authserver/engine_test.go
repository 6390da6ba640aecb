package authserver

import (
	"net/netip"
	"strings"
	"testing"

	"ldplayer/internal/dnswire"
	"ldplayer/internal/zone"
)

var (
	rootNSAddr = netip.MustParseAddr("198.41.0.4") // a.root-servers.net
	comNSAddr  = netip.MustParseAddr("192.5.6.30") // a.gtld-servers.net
	exNSAddr   = netip.MustParseAddr("192.0.2.1")  // ns1.example.com
	clientAddr = netip.MustParseAddr("10.9.9.9")
)

const rootZoneText = `
.	86400	IN	SOA	a.root-servers.net. nstld. 1 1800 900 604800 86400
.	518400	IN	NS	a.root-servers.net.
a.root-servers.net.	518400	IN	A	198.41.0.4
com.	172800	IN	NS	a.gtld-servers.net.
a.gtld-servers.net.	172800	IN	A	192.5.6.30
`

// Note: a.gtld-servers.net lives under net., so the com. zone legitimately
// carries no glue for its own apex NS — resolvers learn that address from
// the root zone, exactly as in the real hierarchy.
const comZoneText = `
com.	900	IN	SOA	a.gtld-servers.net. nstld. 1 1800 900 604800 86400
com.	172800	IN	NS	a.gtld-servers.net.
example.com.	172800	IN	NS	ns1.example.com.
ns1.example.com.	172800	IN	A	192.0.2.1
`

const exZoneText = `
example.com.	3600	IN	SOA	ns1.example.com. hostmaster.example.com. 1 7200 3600 1209600 300
example.com.	3600	IN	NS	ns1.example.com.
ns1.example.com.	3600	IN	A	192.0.2.1
www.example.com.	300	IN	A	192.0.2.80
`

// hierarchyEngine builds the three-level split-horizon engine of Fig 2.
func hierarchyEngine(t testing.TB) *Engine {
	t.Helper()
	parse := func(text, origin string) *zone.Zone {
		z, err := zone.Parse(strings.NewReader(text), origin)
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	e := NewEngine()
	for _, v := range []*View{
		{Name: "root", Sources: []netip.Addr{rootNSAddr}, Zones: []*zone.Zone{parse(rootZoneText, ".")}},
		{Name: "com", Sources: []netip.Addr{comNSAddr}, Zones: []*zone.Zone{parse(comZoneText, "com.")}},
		{Name: "example", Sources: []netip.Addr{exNSAddr}, Zones: []*zone.Zone{parse(exZoneText, "example.com.")}},
	} {
		if err := e.AddView(v); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func respond(t *testing.T, e *Engine, q *dnswire.Message, src netip.Addr, tr Transport) *dnswire.Message {
	t.Helper()
	wire, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Respond(wire, src, tr)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := resp.Unpack(out); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestSplitHorizonSelectsZoneBySource is the heart of §2.4: the same query
// content gets three different answers depending only on source address.
// It asks through Engine.Respond and through one EngineShard — one cache
// serving all three views, as a batch worker's does — and asks twice, so
// the second round is answered from that cache.
func TestSplitHorizonSelectsZoneBySource(t *testing.T) {
	wire, err := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	viaRespond := func(e *Engine) func(netip.Addr) ([]byte, error) {
		return func(src netip.Addr) ([]byte, error) { return e.Respond(wire, src, UDP) }
	}
	viaShard := func(e *Engine) func(netip.Addr) ([]byte, error) {
		sh := e.NewShard()
		return func(src netip.Addr) ([]byte, error) { return sh.AppendRespond(nil, wire, src, UDP) }
	}
	for _, path := range []struct {
		name string
		via  func(*Engine) func(netip.Addr) ([]byte, error)
	}{{"respond", viaRespond}, {"one-shard", viaShard}} {
		t.Run(path.name, func(t *testing.T) {
			e := hierarchyEngine(t)
			ask := path.via(e)
			from := func(src netip.Addr) *dnswire.Message {
				t.Helper()
				out, err := ask(src)
				if err != nil {
					t.Fatal(err)
				}
				resp := new(dnswire.Message)
				if err := resp.Unpack(out); err != nil {
					t.Fatal(err)
				}
				return resp
			}
			for _, round := range []string{"miss", "hit"} {
				// From the root's address: referral to com.
				resp := from(rootNSAddr)
				if resp.Header.AA || len(resp.Answer) != 0 {
					t.Errorf("%s: root view gave an answer: %+v", round, resp)
				}
				if len(resp.Authority) == 0 || resp.Authority[0].Name != "com." {
					t.Errorf("%s: root view authority = %v", round, resp.Authority)
				}

				// From com's address: referral to example.com.
				resp = from(comNSAddr)
				if len(resp.Authority) == 0 || resp.Authority[0].Name != "example.com." {
					t.Errorf("%s: com view authority = %v", round, resp.Authority)
				}
				if len(resp.Additional) == 0 || resp.Additional[0].Data.String() != "192.0.2.1" {
					t.Errorf("%s: com view glue = %v", round, resp.Additional)
				}

				// From example.com's address: the authoritative answer.
				resp = from(exNSAddr)
				if !resp.Header.AA {
					t.Errorf("%s: example view answer not authoritative", round)
				}
				if len(resp.Answer) != 1 || resp.Answer[0].Data.String() != "192.0.2.80" {
					t.Errorf("%s: example view answer = %v", round, resp.Answer)
				}
			}
			if cs := e.CacheStats(); cs.Hits != 3 || cs.Misses != 3 {
				t.Errorf("cache stats = %+v, want each view one miss then one hit", cs)
			}
		})
	}
}

func TestUnknownSourceRefusedWithoutDefaultView(t *testing.T) {
	e := hierarchyEngine(t)
	q := dnswire.NewQuery(2, "www.example.com.", dnswire.TypeA)
	resp := respond(t, e, q, clientAddr, UDP)
	if resp.Header.Rcode != dnswire.RcodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.Header.Rcode)
	}
}

func TestDefaultViewCatchesUnmatched(t *testing.T) {
	e := hierarchyEngine(t)
	z, err := zone.Parse(strings.NewReader(exZoneText), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddView(&View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(3, "www.example.com.", dnswire.TypeA)
	resp := respond(t, e, q, clientAddr, UDP)
	if len(resp.Answer) != 1 {
		t.Errorf("default view answer = %v", resp.Answer)
	}
	// Second default view is rejected.
	if err := e.AddView(&View{Name: "dup-default"}); err == nil {
		t.Error("second default view accepted")
	}
}

func TestDuplicateSourceRejected(t *testing.T) {
	e := hierarchyEngine(t)
	err := e.AddView(&View{Name: "dup", Sources: []netip.Addr{rootNSAddr}})
	if err == nil {
		t.Error("duplicate source accepted")
	}
}

func TestLongestOriginWinsWithinView(t *testing.T) {
	parse := func(text, origin string) *zone.Zone {
		z, err := zone.Parse(strings.NewReader(text), origin)
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	e := NewEngine()
	com := parse(comZoneText, "com.")
	ex := parse(exZoneText, "example.com.")
	if err := e.AddView(&View{Name: "both", Sources: []netip.Addr{comNSAddr}, Zones: []*zone.Zone{com, ex}}); err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(4, "www.example.com.", dnswire.TypeA)
	resp := respond(t, e, q, comNSAddr, UDP)
	if len(resp.Answer) != 1 {
		t.Errorf("longest-origin selection failed: %+v", resp)
	}
}

func TestUDPTruncationAndTCPFullAnswer(t *testing.T) {
	// Build a zone with a deliberately huge RRset.
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
	for i := 0; i < 80; i++ {
		mustRR(dnswire.RR{Name: "fat.big.example.", Class: dnswire.ClassINET, TTL: 60,
			Data: dnswire.TXT{Strings: []string{strings.Repeat("x", 50) + string(rune('a'+i%26)) + strings.Repeat("y", i%7)}}})
	}
	e := NewEngine()
	if err := e.AddView(&View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(5, "fat.big.example.", dnswire.TypeTXT)

	udpResp := respond(t, e, q, clientAddr, UDP)
	if !udpResp.Header.TC {
		t.Error("oversized UDP response not truncated")
	}
	if len(udpResp.Answer) != 0 {
		t.Errorf("truncated response still has %d answers", len(udpResp.Answer))
	}

	tcpResp := respond(t, e, q, clientAddr, TCP)
	if tcpResp.Header.TC {
		t.Error("TCP response truncated")
	}
	if len(tcpResp.Answer) != 80 {
		t.Errorf("TCP answers = %d, want 80", len(tcpResp.Answer))
	}

	// EDNS raises the UDP limit enough for the full answer.
	q.Edns = &dnswire.EDNS{UDPSize: 65000}
	bigUDP := respond(t, e, q, clientAddr, UDP)
	if bigUDP.Header.TC {
		t.Error("EDNS-sized UDP response truncated")
	}
}

func TestEDNSEchoAndDOBit(t *testing.T) {
	e := hierarchyEngine(t)
	q := dnswire.NewQuery(6, "www.example.com.", dnswire.TypeA)
	q.Edns = &dnswire.EDNS{UDPSize: 1232, DO: true}
	resp := respond(t, e, q, exNSAddr, UDP)
	if resp.Edns == nil {
		t.Fatal("response lacks OPT")
	}
	if !resp.Edns.DO {
		t.Error("DO bit not mirrored")
	}
	// Without EDNS in the query, none in the response.
	q2 := dnswire.NewQuery(7, "www.example.com.", dnswire.TypeA)
	resp = respond(t, e, q2, exNSAddr, UDP)
	if resp.Edns != nil {
		t.Error("unsolicited OPT in response")
	}
}

func TestFormErrOnGarbageAndResponses(t *testing.T) {
	e := hierarchyEngine(t)
	// A QR=1 message (a response) must not be answered with data.
	q := dnswire.NewQuery(8, "www.example.com.", dnswire.TypeA)
	q.Header.QR = true
	wire, _ := q.Pack(nil)
	out, err := e.Respond(wire, exNSAddr, UDP)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := resp.Unpack(out); err != nil {
		t.Fatal(err)
	}
	if resp.Header.Rcode != dnswire.RcodeFormErr {
		t.Errorf("rcode = %v, want FORMERR", resp.Header.Rcode)
	}
	// Complete garbage shorter than a header is dropped.
	if out, err := e.Respond([]byte{1, 2, 3}, exNSAddr, UDP); err == nil || out != nil {
		t.Error("short garbage not dropped")
	}
	// Garbage with a plausible header gets FORMERR with the same ID.
	garbage := make([]byte, 20)
	garbage[0], garbage[1] = 0xAB, 0xCD
	garbage[5] = 1   // QDCOUNT=1
	garbage[12] = 63 // question name label runs past the end of the packet
	out, err = e.Respond(garbage, exNSAddr, UDP)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Unpack(out); err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 0xABCD || resp.Header.Rcode != dnswire.RcodeFormErr {
		t.Errorf("garbage response header = %+v", resp.Header)
	}
}

func TestEngineStats(t *testing.T) {
	e := hierarchyEngine(t)
	q := dnswire.NewQuery(9, "www.example.com.", dnswire.TypeA)
	for i := 0; i < 5; i++ {
		respond(t, e, q, exNSAddr, UDP)
	}
	st := e.Stats()
	if st.Queries != 5 || st.Responses != 5 {
		t.Errorf("stats = %+v", st)
	}
	if st.ResponseBytes == 0 || st.QueryBytes == 0 {
		t.Errorf("byte counters = %+v", st)
	}
}

func TestUnsupportedOpcodeNotImp(t *testing.T) {
	e := hierarchyEngine(t)
	q := dnswire.NewQuery(11, "example.com.", dnswire.TypeSOA)
	q.Header.Opcode = dnswire.OpcodeNotify
	wire, _ := q.Pack(nil)
	out, err := e.Respond(wire, exNSAddr, UDP)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := resp.Unpack(out); err != nil {
		t.Fatal(err)
	}
	if resp.Header.Rcode != dnswire.RcodeNotImp {
		t.Errorf("rcode = %v, want NOTIMP", resp.Header.Rcode)
	}
	if resp.Header.ID != 11 {
		t.Errorf("ID = %d", resp.Header.ID)
	}
	if st := e.Stats(); st.NotImpl != 1 {
		t.Errorf("NotImpl = %d, want 1 (NOTIMP traffic must be counted)", st.NotImpl)
	}
}
