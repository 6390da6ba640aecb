// Command metadns runs the meta-DNS-server: a single authoritative
// instance serving one or more zone files, optionally behind split-horizon
// views so it emulates multiple levels of the DNS hierarchy (§2.4).
//
// Usage:
//
//	metadns -zone root=./root.zone -zone com=./com.zone \
//	        -view 198.18.0.1=root -view 198.18.0.5=com \
//	        -udp 127.0.0.1:5300 -tcp 127.0.0.1:5300
//
// Without -view clauses all zones go into a default view answering every
// client. TLS requires -tls plus an in-memory self-signed certificate
// (generated automatically for the host in -tls-host).
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/netsim"
	"ldplayer/internal/obs"
	"ldplayer/internal/qlog"
	"ldplayer/internal/zone"
)

// multiFlag accumulates repeated -zone / -view flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var zoneFlags, viewFlags multiFlag
	flag.Var(&zoneFlags, "zone", "NAME=FILE zone to load (repeatable); NAME 'root' means '.'")
	flag.Var(&viewFlags, "view", "ADDR=NAME[,NAME...] split-horizon view matching source ADDR (repeatable)")
	udp := flag.String("udp", "127.0.0.1:5300", "UDP listen address")
	tcp := flag.String("tcp", "", "TCP listen address (empty = disabled)")
	tlsAddr := flag.String("tls", "", "TLS listen address (empty = disabled)")
	tlsHost := flag.String("tls-host", "127.0.0.1", "hostname or IP for the self-signed TLS certificate")
	idle := flag.Duration("idle-timeout", authserver.DefaultIdleTimeout, "TCP/TLS idle connection timeout")
	obsListen := flag.String("obs-listen", "", "observability HTTP address serving /metrics, /metrics.json, /trace and /debug/pprof (empty = disabled)")
	obsSample := flag.Int("obs-sample", authserver.DefaultObsSampleEvery, "trace and time 1 in N queries when -obs-listen is set")
	impair := flag.String("impair", "", "fault-inject the UDP listener, e.g. 'drop=0.2,jitter=5ms,seed=1'")
	workers := flag.Int("udp-workers", 4, "UDP worker (and with -reuseport, socket) count")
	batch := flag.Int("udp-batch", authserver.DefaultUDPBatchSize, "datagrams per recvmmsg/sendmmsg batch (1 = one datagram per syscall)")
	reusePort := flag.Bool("reuseport", true, "one SO_REUSEPORT UDP socket per worker where supported")
	qlogFile := flag.String("qlog", "", "stream per-query telemetry to this rotating binary qlog file (empty = disabled)")
	qlogTCP := flag.String("qlog-tcp", "", "stream per-query telemetry to this TCP collector address (empty = disabled)")
	qlogRotate := flag.Int("qlog-rotate-mb", 256, "rotate the -qlog file after this many MiB (0 = never)")
	qlogSample := flag.Int("qlog-sample", 1, "export 1 in N telemetry events")
	qlogSuffix := flag.String("qlog-suffix", "", "comma-separated qname suffix keep-list for telemetry export (empty = all)")
	qlogAnon := flag.String("qlog-anon", "", "anonymize exported qnames with this keyed-hash secret (empty = off)")
	qlogSlow := flag.Duration("qlog-slow", 0, "tag exported events with sampled latency above this as slow (0 = off)")
	qlogRing := flag.Int("qlog-ring", 0, "telemetry ring capacity per producer (0 = default)")
	flag.Parse()

	srvOpts := serverOpts{
		workers:   *workers,
		batch:     *batch,
		reusePort: *reusePort,
	}
	qopts := qlog.Options{
		File:         *qlogFile,
		FileRotateMB: *qlogRotate,
		TCP:          *qlogTCP,
		Sample:       *qlogSample,
		Suffixes:     *qlogSuffix,
		AnonKey:      *qlogAnon,
		Slow:         *qlogSlow,
		RingSize:     *qlogRing,
	}
	if err := run(zoneFlags, viewFlags, *udp, *tcp, *tlsAddr, *tlsHost, *idle, *obsListen, *obsSample, *impair, qopts, srvOpts); err != nil {
		fmt.Fprintln(os.Stderr, "metadns:", err)
		os.Exit(1)
	}
}

// serverOpts carries the UDP datapath shape from flags to run.
type serverOpts struct {
	workers   int
	batch     int
	reusePort bool
}

func run(zoneFlags, viewFlags []string, udp, tcp, tlsAddr, tlsHost string, idle time.Duration, obsListen string, obsSample int, impair string, qopts qlog.Options, srvOpts serverOpts) error {
	if len(zoneFlags) == 0 {
		return fmt.Errorf("at least one -zone is required")
	}
	if srvOpts.batch < 1 {
		return fmt.Errorf("-udp-batch %d: the batch width must be at least 1 (-udp-batch 1 is one datagram per syscall)", srvOpts.batch)
	}
	zones := make(map[string]*zone.Zone)
	for _, zf := range zoneFlags {
		name, file, ok := strings.Cut(zf, "=")
		if !ok {
			return fmt.Errorf("bad -zone %q (want NAME=FILE)", zf)
		}
		origin := name
		if name == "root" {
			origin = "."
		}
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		z, err := zone.Parse(f, dnswire.CanonicalName(origin))
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", file, err)
		}
		if errs := z.Validate(); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "metadns: warning:", e)
			}
		}
		zones[name] = z
		fmt.Printf("loaded zone %s (%d records) from %s\n", z.Origin, z.NumRecords(), file)
	}

	engine := authserver.NewEngine()
	if len(viewFlags) == 0 {
		var all []*zone.Zone
		for _, z := range zones {
			all = append(all, z)
		}
		if err := engine.AddView(&authserver.View{Name: "default", Zones: all}); err != nil {
			return err
		}
	} else {
		for _, vf := range viewFlags {
			addrStr, names, ok := strings.Cut(vf, "=")
			if !ok {
				return fmt.Errorf("bad -view %q (want ADDR=NAME,...)", vf)
			}
			addr, err := netip.ParseAddr(addrStr)
			if err != nil {
				return fmt.Errorf("bad -view address %q: %v", addrStr, err)
			}
			v := &authserver.View{Name: vf, Sources: []netip.Addr{addr}}
			for _, n := range strings.Split(names, ",") {
				z, ok := zones[n]
				if !ok {
					return fmt.Errorf("-view %q references unknown zone %q", vf, n)
				}
				v.Zones = append(v.Zones, z)
			}
			if err := engine.AddView(v); err != nil {
				return err
			}
		}
	}

	// The qlog pipeline attaches before Server.Start so the first query is
	// logged; its defer is registered before the server's, so (LIFO) the
	// pipeline drains after the listeners stop.
	var qpipe *qlog.Pipeline
	if qopts.Enabled() {
		var err error
		qpipe, err = qlog.NewFromOptions(qopts)
		if err != nil {
			return err
		}
		defer func() {
			if err := qpipe.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "metadns: qlog:", err)
			}
			qst := qpipe.Stats()
			fmt.Printf("qlog: %d events captured, %d shed (ring), %d filtered, %d exported, %d sink-dropped\n",
				qst.Published, qst.RingDrops, qst.TransformDrops, qst.SinkWritten, qst.SinkDropped)
		}()
		engine.SetQlog(qpipe)
		if qopts.File != "" {
			fmt.Println("qlog telemetry to file", qopts.File)
		}
		if qopts.TCP != "" {
			fmt.Println("qlog telemetry to tcp", qopts.TCP)
		}
	}

	if obsListen != "" {
		reg := obs.NewRegistry()
		// The engine gates which queries trace (1 in -obs-sample), so the
		// tracer itself keeps every span it is handed.
		tracer := obs.NewTracer(1024, 1)
		engine.Instrument(reg, tracer, obsSample)
		if qpipe != nil {
			qpipe.Instrument(reg)
		}
		osrv, err := obs.Serve(obsListen, reg, tracer)
		if err != nil {
			return err
		}
		defer osrv.Close()
		sampler := obs.NewSampler(reg, time.Second)
		sampler.Start()
		defer sampler.Stop()
		fmt.Println("observability on http://" + osrv.Addr().String() + "/metrics")
	}

	srv := &authserver.Server{
		Engine:      engine,
		IdleTimeout: idle,
		UDPWorkers:  srvOpts.workers,
		ReusePort:   srvOpts.reusePort,
		BatchSize:   srvOpts.batch,
	}
	if tlsAddr != "" {
		serverTLS, _, err := authserver.SelfSignedTLSConfig(tlsHost)
		if err != nil {
			return err
		}
		srv.TLSConfig = serverTLS
	}
	// With -impair, the server binds UDP on an internal loopback port and
	// a lossy relay listens on the public address in front of it.
	serveUDP := udp
	var imp netsim.Impairment
	if impair != "" {
		var err error
		if imp, err = netsim.ParseImpairment(impair); err != nil {
			return err
		}
		if udp == "" {
			return fmt.Errorf("-impair requires a -udp listen address")
		}
		serveUDP = "127.0.0.1:0"
	}
	if err := srv.Start(serveUDP, tcp, tlsAddr); err != nil {
		return err
	}
	defer srv.Close()
	if impair != "" {
		relay, err := netsim.NewUDPRelay(udp, srv.UDPAddr().String(), imp)
		if err != nil {
			return err
		}
		defer relay.Close()
		fmt.Printf("udp listening on %s (impaired: %s)\n", relay.Addr(), imp)
	} else if a := srv.UDPAddr(); a != nil {
		fmt.Println("udp listening on", a)
	}
	if a := srv.TCPAddr(); a != nil {
		fmt.Println("tcp listening on", a)
	}
	if a := srv.TLSAddr(); a != nil {
		fmt.Println("tls listening on", a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := engine.Stats()
	fmt.Printf("\nserved %d queries (%d bytes out), %d truncated, %d refused\n",
		st.Queries, st.ResponseBytes, st.Truncated, st.Refused)
	return nil
}
