package pcap

import (
	"bytes"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

// FuzzPcapRead feeds arbitrary bytes to both capture readers, raw and
// through the DNS extractor: nothing may panic, and every packet or DNS
// message handed back must fit inside the input it came from (a length
// field can only ever describe bytes that are there).
func FuzzPcapRead(f *testing.F) {
	var classic bytes.Buffer
	if err := WriteDNSPcap(&classic, sampleTrace(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(classic.Bytes())
	pr, err := NewReader(bytes.NewReader(classic.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	var pkts [][]byte
	var tss []time.Time
	for {
		info, data, err := pr.Next()
		if err != nil {
			break
		}
		pkts = append(pkts, data)
		tss = append(tss, info.Timestamp)
	}
	f.Add(buildNgCapture(f, LinkTypeEthernet, pkts, tss))
	f.Add(classicPcap(0, maxSnapLen+4, nil))
	f.Add(classicPcap(0, 20, []byte{0x45, 0, 0, 20}))

	f.Fuzz(func(t *testing.T, data []byte) {
		fits := func(what string, n int) {
			if n > len(data) {
				t.Fatalf("%s of %d bytes from a %d-byte input", what, n, len(data))
			}
		}
		if pr, err := NewReader(bytes.NewReader(data)); err == nil {
			for {
				info, pkt, err := pr.Next()
				if err != nil {
					break
				}
				fits("pcap packet", len(pkt))
				if info.CaptureLength != len(pkt) {
					t.Fatalf("CaptureLength %d for a %d-byte packet", info.CaptureLength, len(pkt))
				}
			}
		}
		if ng, err := NewNgReader(bytes.NewReader(data)); err == nil {
			for {
				_, _, pkt, err := ng.Next()
				if err != nil {
					break
				}
				fits("pcapng packet", len(pkt))
			}
		}
		readers := []func() (trace.Reader, error){
			func() (trace.Reader, error) { return NewTraceReader(bytes.NewReader(data)) },
			func() (trace.Reader, error) { return NewNgTraceReader(bytes.NewReader(data)) },
		}
		for _, open := range readers {
			tr, err := open()
			if err != nil {
				continue
			}
			for {
				e, err := tr.Next()
				if err != nil {
					break
				}
				fits("DNS message", len(e.Message))
			}
		}
	})
}
