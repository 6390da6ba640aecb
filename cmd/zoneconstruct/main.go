// Command zoneconstruct rebuilds zone files from a captured response
// trace (§2.3): point it at a capture recorded at a recursive server's
// upstream interface — pcap, or any other trace format internal/tracefile
// reads (.txt, .blk, .qlog) — and it emits one master file per
// reconstructed zone, ready for metadns to serve.
//
// Usage:
//
//	zoneconstruct -in upstream.pcap -out ./zones -root-hints 198.41.0.4,199.9.14.201
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"

	"ldplayer/internal/tracefile"
	"ldplayer/internal/zonecon"
)

func main() {
	in := flag.String("in", "", "input capture (.pcap/.pcapng/.txt/.blk/.qlog)")
	out := flag.String("out", "zones", "output directory for zone files")
	hints := flag.String("root-hints", "", "comma-separated root server addresses")
	flag.Parse()
	if err := run(*in, *out, *hints); err != nil {
		fmt.Fprintln(os.Stderr, "zoneconstruct:", err)
		os.Exit(1)
	}
}

func run(in, out, hints string) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	r, err := tracefile.Open(in)
	if err != nil {
		return err
	}
	defer r.Close()

	var opts zonecon.Options
	if hints != "" {
		for _, h := range strings.Split(hints, ",") {
			a, err := netip.ParseAddr(strings.TrimSpace(h))
			if err != nil {
				return fmt.Errorf("bad root hint %q: %v", h, err)
			}
			opts.RootHints = append(opts.RootHints, a)
		}
	}

	con, err := zonecon.Construct(r, opts)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for _, origin := range con.Origins() {
		z := con.Zones[origin]
		name := strings.TrimSuffix(origin, ".")
		if name == "" {
			name = "root"
		}
		path := filepath.Join(out, name+".zone")
		zf, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := z.Write(zf); err != nil {
			zf.Close()
			return err
		}
		if err := zf.Close(); err != nil {
			return err
		}
		fmt.Printf("%-30s %5d records -> %s\n", origin, z.NumRecords(), path)
	}
	fmt.Printf("zones=%d dropped=%d conflicts=%d synthesized-soa=%d synthesized-ns=%d\n",
		len(con.Zones), con.Dropped, con.Conflicts, len(con.SynthesizedSOA), len(con.SynthesizedNS))
	return nil
}
