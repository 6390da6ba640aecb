// Quickstart: generate a small synthetic trace, stand up an in-process
// authoritative server for a wildcard zone, replay the trace against it
// with real timing over UDP, and print the replay report.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"ldplayer/internal/core"
	"ldplayer/internal/traceg"
	"ldplayer/internal/zone"
)

const zoneText = `
example.com.	3600	IN	SOA	ns1.example.com. host. 1 7200 3600 1209600 300
example.com.	3600	IN	NS	ns1.example.com.
ns1.example.com.	3600	IN	A	192.0.2.1
*.example.com.	300	IN	A	192.0.2.81
`

func main() {
	// A zone with a wildcard answers every synthetic query (§4.1: "we
	// setup the server to host names in example.com with wildcards").
	z, err := zone.Parse(strings.NewReader(zoneText), "example.com.")
	if err != nil {
		log.Fatal(err)
	}

	player, err := core.New(core.Config{Zones: []*zone.Zone{z}})
	if err != nil {
		log.Fatal(err)
	}
	if err := player.Start(); err != nil {
		log.Fatal(err)
	}
	defer player.Close()

	// 2 seconds of queries at 10 ms fixed inter-arrival (syn-2 style),
	// anchored at the current wall time for live replay.
	gen, err := traceg.Synthetic(traceg.SyntheticConfig{
		InterArrival: 10 * time.Millisecond,
		Duration:     2 * time.Second,
		Clients:      25,
		Start:        time.Now(),
	})
	if err != nil {
		log.Fatal(err)
	}

	report, err := player.Replay(context.Background(), gen)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== LDplayer quickstart ===")
	fmt.Printf("queries sent:        %d (from %d sources)\n", report.Sent, report.Sources)
	fmt.Printf("responses received:  %d\n", report.Responses)
	fmt.Printf("replay timing error: median %+.3f ms (quartiles %+.3f / %+.3f ms)\n",
		report.TimingError.P50*1000, report.TimingError.P25*1000, report.TimingError.P75*1000)
	fmt.Printf("query latency:       median %.3f ms, p95 %.3f ms\n",
		report.Latency.P50*1000, report.Latency.P95*1000)
	fmt.Printf("server counters:     %d queries, %d response bytes\n",
		report.ServerStats.Queries, report.ServerStats.ResponseBytes)
}
