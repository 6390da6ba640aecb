package replay

import (
	"io"
	"net"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

// BenchmarkLink prices the controller↔client link alone: a trace through
// RemoteController.Run, over loopback TCP, out of the client's link
// reader, with no engine behind it (the ledger's
// replay.link_ns_per_entry is this plus a send-only replay).
func BenchmarkLink(b *testing.B) {
	entries := makeTrace(b, 131072, 1000, time.Microsecond, trace.UDP)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(entries) {
		got := make(chan int, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				got <- 0
				return
			}
			defer conn.Close()
			lr, err := openLink(conn)
			if err != nil {
				got <- 0
				return
			}
			n := 0
			batch := make([]trace.Entry, 4096)
			for {
				k, err := lr.NextBatch(batch)
				n += k
				if err != nil {
					if err != io.EOF {
						n = -1
					}
					got <- n
					return
				}
			}
		}()
		rc, err := DialClients(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		if err := rc.Run(trace.NewSliceReader(entries)); err != nil {
			b.Fatal(err)
		}
		if n := <-got; n != len(entries) {
			b.Fatalf("client read %d of %d entries", n, len(entries))
		}
	}
}
