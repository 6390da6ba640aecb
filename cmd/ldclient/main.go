// Command ldclient runs a remote client instance (Figure 4): a
// distributor plus querier pool that listens for a controller's TCP link,
// receives its time-synchronization broadcast and an LDTRC02 block stream
// of queries, and replays against the configured targets. Combine with
// `ldplayer replay -clients host1:port,host2:port` on the controller host
// to reproduce the multi-host topology of Figure 5.
//
// Usage:
//
//	ldclient -listen :9053 -udp server:53 -tcp server:53 -queriers 6
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9053", "address to accept the controller link on")
	udp := flag.String("udp", "", "UDP target host:port")
	tcp := flag.String("tcp", "", "TCP target host:port")
	queriers := flag.Int("queriers", 6, "querier pool size")
	idle := flag.Duration("idle-timeout", 20*time.Second, "connection reuse timeout")
	once := flag.Bool("once", false, "exit after one replay instead of serving forever")
	obsListen := flag.String("obs-listen", "", "observability HTTP address serving /metrics, /metrics.json and /debug/pprof (empty = disabled)")
	flag.Parse()

	if err := run(*listen, *udp, *tcp, *queriers, *idle, *once, *obsListen); err != nil {
		fmt.Fprintln(os.Stderr, "ldclient:", err)
		os.Exit(1)
	}
}

func run(listen, udp, tcp string, queriers int, idle time.Duration, once bool, obsListen string) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Println("client instance listening on", ln.Addr())

	// One registry outlives the per-replay engines: each fresh engine's
	// Instrument re-points the scrape functions at itself, so /metrics
	// always reflects the current (or most recent) replay.
	var reg *obs.Registry
	if obsListen != "" {
		reg = obs.NewRegistry()
		osrv, oerr := obs.Serve(obsListen, reg, nil)
		if oerr != nil {
			return oerr
		}
		defer osrv.Close()
		fmt.Println("observability on http://" + osrv.Addr().String() + "/metrics")
	}

	for {
		en, err := replay.New(replay.Config{
			Distributors:           1,
			QueriersPerDistributor: queriers,
			UDPTarget:              udp,
			TCPTarget:              tcp,
			IdleTimeout:            idle,
		})
		if err != nil {
			return err
		}
		en.Instrument(reg)
		st, err := replay.ServeClient(ln, en)
		if st != nil {
			// A link that broke mid-trace still reports what it replayed.
			fmt.Println("replayed:", st)
		}
		if err != nil {
			return err
		}
		if once {
			return nil
		}
	}
}
