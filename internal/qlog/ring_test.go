package qlog

import (
	"runtime"
	"sync"
	"testing"
)

func TestRingOrderAndWraparound(t *testing.T) {
	r := newRing(8)
	p := &Producer{r: r}
	dst := make([]Event, 8)
	next := int64(0) // next value expected out
	emitted := int64(0)
	for round := 0; round < 5; round++ {
		// Fill to capacity, then verify drops are counted, then drain and
		// check FIFO order across the wrap.
		for {
			ev := p.Reserve()
			if ev == nil {
				break
			}
			ev.Time = emitted
			emitted++
			p.Commit()
		}
		if got := r.drops.Load(); got != int64(round+1) {
			t.Fatalf("round %d: drops = %d, want %d", round, got, round+1)
		}
		for {
			n := r.drain(dst)
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				if dst[i].Time != next {
					t.Fatalf("event out of order: got %d, want %d", dst[i].Time, next)
				}
				next++
			}
		}
	}
	if next != emitted {
		t.Fatalf("drained %d events, emitted %d", next, emitted)
	}
	if got := r.published(); got != emitted {
		t.Fatalf("published = %d, want %d", got, emitted)
	}
}

func TestRingSizePowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, DefaultRingSize}, {1, 1}, {3, 4}, {8, 8}, {1000, 1024},
	} {
		if r := newRing(tc.ask); len(r.slots) != tc.want {
			t.Errorf("newRing(%d) size = %d, want %d", tc.ask, len(r.slots), tc.want)
		}
	}
}

// TestRingSPSCHammer moves a stream through a tiny ring with the
// producer and consumer on separate goroutines; under -race this is the
// memory-model check for the Lamport pairing, and the sequence check
// proves every event that commits arrives exactly once, in order. The
// producer yields on a full ring (each failed Reserve is an accounted
// drop, not a retry slot — the datapath never retries).
func TestRingSPSCHammer(t *testing.T) {
	const total = 50000
	r := newRing(64)
	p := &Producer{r: r}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < total; {
			if ev := p.Reserve(); ev != nil {
				ev.Time = i
				ev.Latency = -i
				p.Commit()
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	dst := make([]Event, 48)
	next := int64(0)
	for next < total {
		n := r.drain(dst)
		for i := 0; i < n; i++ {
			if dst[i].Time != next || dst[i].Latency != -next {
				t.Fatalf("got event %d/%d, want %d", dst[i].Time, dst[i].Latency, next)
			}
			next++
		}
		if n == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if got := r.published(); got != total {
		t.Fatalf("published = %d, want %d", got, total)
	}
}
