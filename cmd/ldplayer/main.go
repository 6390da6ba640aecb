// Command ldplayer is the LDplayer driver: trace replay against live
// servers, trace statistics, what-if mutation, and regeneration of the
// paper's experiments.
//
// Usage:
//
//	ldplayer stats  -in trace.blk
//	ldplayer mutate -in trace.blk -out tcp.blk -protocol tcp -do
//	ldplayer replay -in trace.blk -udp 127.0.0.1:5300 [-tcp ...] [-fast]
//	ldplayer experiment -name fig10 [-paper-scale]
//	ldplayer demo
//
// Trace formats are selected by extension (internal/tracefile): .pcap,
// .pcapng, .txt, .blk, .qlog and .qlog.z in; .txt and .blk out.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"time"

	"ldplayer/internal/experiments"
	"ldplayer/internal/mutate"
	"ldplayer/internal/netsim"
	"ldplayer/internal/obs"
	"ldplayer/internal/qlog"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
	"ldplayer/internal/tracefile"
	"ldplayer/internal/traceg"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "mutate":
		err = cmdMutate(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldplayer:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ldplayer <gen|stats|mutate|replay|experiment|demo> [flags]
  gen         -kind broot|rec|syn -out FILE synthesize a Table-1 trace family
  stats       -in FILE                      print Table-1 style statistics
  mutate      -in FILE -out FILE [flags]    rewrite a trace (protocol, DO, tags)
  replay      -in FILE -udp HOST:PORT ...   replay against live servers
  experiment  -name NAME                    regenerate a paper figure/table
  demo                                      end-to-end self-contained demo`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "broot", "trace family: broot, rec, or syn")
	out := fs.String("out", "", "output trace (.txt or .blk)")
	duration := fs.Duration("duration", 10*time.Second, "trace duration")
	rate := fs.Float64("rate", 1000, "broot: median queries/second")
	clients := fs.Int("clients", 10000, "broot: client population")
	gap := fs.Duration("interarrival", 10*time.Millisecond, "syn: fixed inter-arrival")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	var r trace.Reader
	var err error
	switch *kind {
	case "broot":
		r, err = traceg.BRoot(traceg.BRootConfig{
			Duration: *duration, MedianRate: *rate, Clients: *clients,
			TCPFraction: 0.03, DOFraction: 0.723, Seed: *seed,
		})
	case "rec":
		r, err = traceg.Recursive(traceg.RecursiveConfig{Duration: *duration, Seed: *seed})
	case "syn":
		r, err = traceg.Synthetic(traceg.SyntheticConfig{
			InterArrival: *gap, Duration: *duration, Clients: *clients, Seed: *seed,
		})
	default:
		return fmt.Errorf("gen: unknown -kind %q", *kind)
	}
	if err != nil {
		return err
	}
	n, err := tracefile.WriteAll(*out, false, r)
	if err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	fmt.Printf("generated %d entries to %s\n", n, *out)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input trace (.pcap/.txt/.blk/.qlog)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	r, err := tracefile.Open(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	st, err := traceg.ComputeStats(r)
	if err != nil {
		return err
	}
	fmt.Printf("records:        %d\n", st.Records)
	fmt.Printf("clients:        %d\n", st.Clients)
	fmt.Printf("duration:       %v\n", st.Duration)
	fmt.Printf("inter-arrival:  %.6fs ± %.6fs\n", st.MeanInterArriv.Seconds(), st.StdInterArriv.Seconds())
	fmt.Printf("tcp fraction:   %.3f\n", st.TCPFraction)
	fmt.Printf("do fraction:    %.3f\n", st.DOFraction)
	return nil
}

func cmdMutate(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	in := fs.String("in", "", "input trace")
	out := fs.String("out", "", "output trace (.txt or .blk)")
	protocol := fs.String("protocol", "", "force protocol: udp, tcp or tls")
	do := fs.Bool("do", false, "set the EDNS DO bit on every query")
	tag := fs.String("tag", "", "prepend unique labels with this prefix (§4.2)")
	dst := fs.String("dst", "", "rewrite every destination to this host:port")
	queriesOnly := fs.Bool("queries-only", false, "drop responses")
	limit := fs.Int("limit", 0, "keep at most N entries")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("mutate: -in and -out are required")
	}

	var muts []mutate.Mutation
	if *queriesOnly {
		muts = append(muts, mutate.QueriesOnly())
	}
	if *protocol != "" {
		p, ok := trace.ParseProtocol(*protocol)
		if !ok {
			return fmt.Errorf("mutate: bad protocol %q", *protocol)
		}
		muts = append(muts, mutate.SetProtocol(p))
	}
	if *do {
		muts = append(muts, mutate.SetDO(true))
	}
	if *tag != "" {
		muts = append(muts, mutate.PrependUnique(*tag))
	}
	if *dst != "" {
		ap, err := netip.ParseAddrPort(*dst)
		if err != nil {
			return fmt.Errorf("mutate: bad -dst: %v", err)
		}
		muts = append(muts, mutate.RewriteDst(ap))
	}
	if *limit > 0 {
		muts = append(muts, mutate.Limit(*limit))
	}

	r, err := tracefile.Open(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	n, err := tracefile.WriteAll(*out, false, mutate.NewPipeline(muts...).Reader(r))
	if err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	fmt.Printf("wrote %d entries to %s\n", n, *out)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "input trace")
	udp := fs.String("udp", "", "UDP target host:port")
	tcp := fs.String("tcp", "", "TCP target host:port")
	fast := fs.Bool("fast", false, "ignore trace timing, send as fast as possible")
	distributors := fs.Int("distributors", 1, "distributor processes")
	queriers := fs.Int("queriers", 6, "queriers per distributor")
	idle := fs.Duration("idle-timeout", 20*time.Second, "client connection reuse timeout")
	udpRetries := fs.Int("udp-retries", 0, "UDP retransmissions per unanswered query (0 = fire and forget)")
	udpRetryTimeout := fs.Duration("udp-retry-timeout", 250*time.Millisecond, "wait before the first UDP retransmission (doubles per retry)")
	impair := fs.String("impair", "", "fault-inject the UDP path, e.g. 'drop=0.2,dup=0.05,jitter=5ms,seed=1'")
	clients := fs.String("clients", "", "comma-separated ldclient addresses: act as remote controller (Figure 5)")
	obsListen := fs.String("obs-listen", "", "observability HTTP address serving /metrics, /metrics.json and /debug/pprof (empty = disabled)")
	qlogFile := fs.String("qlog", "", "stream per-send telemetry to this binary qlog file (empty = disabled)")
	qlogTCP := fs.String("qlog-tcp", "", "stream per-send telemetry to this TCP collector address (empty = disabled)")
	qlogSample := fs.Int("qlog-sample", 1, "export 1 in N telemetry events")
	qlogAnon := fs.String("qlog-anon", "", "anonymize exported qnames with this keyed-hash secret (empty = off)")
	qlogRing := fs.Int("qlog-ring", 0, "telemetry ring capacity per producer (0 = default)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("replay: -in is required")
	}
	r, err := tracefile.Open(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	if *clients != "" {
		// Remote-controller mode: stream the trace to ldclient instances
		// over TCP links; they own the sockets and the timing.
		rc, err := replay.DialClients(strings.Split(*clients, ",")...)
		if err != nil {
			return err
		}
		if err := rc.Run(r); err != nil {
			return err
		}
		fmt.Println("trace distributed to", *clients)
		return nil
	}
	udpTarget := *udp
	var relay *netsim.UDPRelay
	if *impair != "" {
		imp, perr := netsim.ParseImpairment(*impair)
		if perr != nil {
			return fmt.Errorf("replay: %w", perr)
		}
		if udpTarget == "" {
			return fmt.Errorf("replay: -impair requires a -udp target")
		}
		// Interpose a lossy relay between the queriers and the target so
		// the real sockets traverse the fault model.
		relay, err = netsim.NewUDPRelay("127.0.0.1:0", udpTarget, imp)
		if err != nil {
			return err
		}
		defer relay.Close()
		udpTarget = relay.Addr().String()
		fmt.Printf("impairing UDP path to %s: %s\n", *udp, imp)
	}
	qopts := qlog.Options{
		File:     *qlogFile,
		TCP:      *qlogTCP,
		Sample:   *qlogSample,
		AnonKey:  *qlogAnon,
		RingSize: *qlogRing,
	}
	var qpipe *qlog.Pipeline
	if qopts.Enabled() {
		var qerr error
		if qpipe, qerr = qlog.NewFromOptions(qopts); qerr != nil {
			return qerr
		}
	}
	en, err := replay.New(replay.Config{
		Distributors:           *distributors,
		QueriersPerDistributor: *queriers,
		UDPTarget:              udpTarget,
		TCPTarget:              *tcp,
		IdleTimeout:            *idle,
		UDPRetries:             *udpRetries,
		UDPRetryTimeout:        *udpRetryTimeout,
		FastMode:               *fast,
		Qlog:                   qpipe,
	})
	if err != nil {
		return err
	}
	if *obsListen != "" {
		reg := obs.NewRegistry()
		en.Instrument(reg)
		if qpipe != nil {
			qpipe.Instrument(reg)
		}
		osrv, oerr := obs.Serve(*obsListen, reg, nil)
		if oerr != nil {
			return oerr
		}
		defer osrv.Close()
		fmt.Println("observability on http://" + osrv.Addr().String() + "/metrics")
	}
	st, err := en.Replay(context.Background(), r)
	if qpipe != nil {
		if cerr := qpipe.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "ldplayer: qlog:", cerr)
		}
		qst := qpipe.Stats()
		fmt.Printf("qlog: %d events captured, %d shed (ring), %d filtered, %d exported, %d sink-dropped\n",
			qst.Published, qst.RingDrops, qst.TransformDrops, qst.SinkWritten, qst.SinkDropped)
	}
	if err != nil {
		return err
	}
	fmt.Println(st)
	if relay != nil {
		is := relay.Stats()
		fmt.Printf("impairment: offered=%d dropped=%d duplicated=%d reordered=%d corrupted=%d\n",
			is.Offered, is.Dropped, is.Duplicated, is.Reordered, is.Corrupted)
	}
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	name := fs.String("name", "", "table1|fig6|fig7|fig8|fig9|fig10|fig11|fig13|fig14|fig15|fig15c|all")
	paperScale := fs.Bool("paper-scale", false, "run simulations at the paper's full operating point (slow)")
	fs.Parse(args)
	sim := experiments.DefaultSimScale()
	if *paperScale {
		sim = experiments.PaperSimScale()
	}
	live := experiments.DefaultScale()
	timeouts := []time.Duration{5 * time.Second, 10 * time.Second, 15 * time.Second,
		20 * time.Second, 25 * time.Second, 30 * time.Second, 35 * time.Second, 40 * time.Second}
	rtts := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond,
		120 * time.Millisecond, 160 * time.Millisecond}

	run := func(n string) error {
		fmt.Printf("=== %s ===\n", n)
		switch n {
		case "table1":
			rows, err := experiments.Table1(live)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
		case "fig6":
			rows, err := experiments.Fig6TimingError(live)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
		case "fig7":
			rows, err := experiments.Fig7InterArrival(live)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
		case "fig8":
			rows, err := experiments.Fig8RateAccuracy(live, 5)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
		case "fig9":
			res, err := experiments.Fig9Throughput(300000)
			if err != nil {
				return err
			}
			fmt.Println(res)
		case "fig10":
			rows, err := experiments.Fig10DNSSEC(sim)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
		case "fig11":
			rows, err := experiments.Fig11CPU(sim, timeouts)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
		case "fig13":
			rows, err := experiments.FigFootprint(sim, experiments.WorkloadAllTCP, timeouts)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
		case "fig14":
			rows, err := experiments.FigFootprint(sim, experiments.WorkloadAllTLS, timeouts)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
		case "fig15":
			rows, err := experiments.Fig15Latency(sim, rtts)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
		case "fig15c":
			res, err := experiments.Fig15cClientLoad(sim)
			if err != nil {
				return err
			}
			fmt.Println(res)
		default:
			return fmt.Errorf("experiment: unknown -name %q", n)
		}
		return nil
	}
	if *name == "all" {
		for _, n := range []string{"table1", "fig6", "fig7", "fig8", "fig9",
			"fig10", "fig11", "fig13", "fig14", "fig15", "fig15c"} {
			if err := run(n); err != nil {
				return err
			}
		}
		return nil
	}
	if *name == "" {
		return fmt.Errorf("experiment: -name is required")
	}
	return run(*name)
}

// cmdDemo generates a trace, writes it in all three formats, and replays
// it against an in-process root server — a self-contained smoke run.
func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	fs.Parse(args)
	rows, err := experiments.Table1(experiments.Scale{
		Rate: 500, Duration: 3 * time.Second, Clients: 3000, Seed: 1,
	})
	if err != nil {
		return err
	}
	fmt.Println("generated trace families:")
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	res, err := experiments.Fig9Throughput(50000)
	if err != nil {
		return err
	}
	fmt.Println("fast-replay check:", res)
	return nil
}
