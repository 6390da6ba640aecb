//go:build linux && (amd64 || arm64)

package replay

import (
	"net"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"
)

// maxSourceBytes bounds what one emulated UDP source holds while its
// reader is parked: the socket, its netio batch (send headers ~14 KiB at
// sendBatchCap 128), the reader goroutine's stack and an empty pending
// table. Measured at 22–25 KiB on linux/amd64 with Go 1.24; a receive
// slab owned per socket (4 × 64 KiB) puts it at ~276 KiB.
const maxSourceBytes = 48 << 10

// TestUDPSourceFootprint opens many UDP sources against a loopback socket
// and bounds the heap and stack they hold once every reader has parked on
// its idle socket. The portable netio fallback owns its receive buffer,
// so the bound is for the Linux batch path only.
func TestUDPSourceFootprint(t *testing.T) {
	const sources = 256
	hole, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	en, err := New(Config{UDPTarget: hole.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	q := newQuerier(en, "footprint")
	defer q.closeSockets()

	stacks := make([]byte, 4<<20) // allocated before the baseline: it is in both readings
	inUse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse + ms.StackInuse
	}
	before := inUse()
	for i := 0; i < sources; i++ {
		src := netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
		if _, err := q.getUDP(src); err != nil {
			t.Fatal(err)
		}
	}
	waitParked(t, stacks, "(*querier).readUDP", sources)
	after := inUse()
	runtime.KeepAlive(stacks)
	per := int64(after-before) / sources
	t.Logf("%d parked UDP sources: %d bytes each", sources, per)
	if per > maxSourceBytes {
		t.Errorf("a parked UDP source holds %d bytes, want at most %d", per, maxSourceBytes)
	}
}

// waitParked waits until n goroutines running fn are parked in netpoll on
// an empty socket, reading every goroutine's stack into buf.
func waitParked(t *testing.T, buf []byte, fn string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[IO wait") && strings.Contains(g, fn) {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d readers parked after 10s", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}
