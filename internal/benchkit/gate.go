package benchkit

import (
	"sync/atomic"
	"time"

	"ldplayer/internal/trace"
)

// GateWindow is W: how many entries a closed workload may have beyond
// the responses seen so far. It is sized so that no datagram can be lost
// whatever the scheduler does: the replay client opens one UDP socket per
// source with the kernel's default receive buffer (rmem_default, 212992
// bytes, of which UDP's deferred accounting can hide a quarter), a loopback
// datagram of these workloads charges 832 bytes against it (1344 for the
// rare response over ~150 bytes), and when the host steals the thread that
// reads the busiest source's socket the whole window ends up queued on
// that one socket. 128 x 832 = 104 KiB fits with room to spare. At W = 512
// (384 KiB) a shared box dropped a few dozen responses in one run out of
// twenty, which is not a property of the program under test. The window
// also sets the batch sizes the pipeline sees: goodput at 128 is 10-20%
// below 512 on the UDP workloads, CPU-bound at both.
const GateWindow = 128

// gateStall is how long the gate waits with zero credits and no response
// before it declares the window lost. Loopback round trips are tens of
// microseconds, so a quarter of a second of silence means the outstanding
// queries are not coming back; the reclaim keeps the run from hanging and
// marks it invalid. It is well above the tens of milliseconds a shared
// host can take the whole process off its CPUs for, after which the
// expired timer would otherwise beat the waiting responses to the reader.
const gateStall = 250 * time.Millisecond

// Gate makes replay.Engine's fast mode a closed loop from outside. The
// engine has no in-flight window of its own, and ungated fast mode
// overruns the server's socket buffers (a third of the queries answered).
// The gate wraps the trace reader the engine pulls from and hands out at
// most window entries beyond the settled count, which the benchmark
// advances from the engine's OnResponse/OnError callbacks.
//
// It returns short batches as soon as any credit exists instead of
// waiting to fill dst: the engine asks for 4096 entries at a time, so a
// full-batch wait deadlocks for every window below that. While it waits
// it blocks on a channel — the box is CPU-bound and a spinning gate would
// steal the cores being measured.
//
// NextBatch runs on the engine's reader goroutine only; Settle may be
// called from any goroutine.
type Gate struct {
	src    trace.BatchReader
	window int64
	stall  time.Duration

	issued  int64 // reader goroutine only
	settled atomic.Int64
	// waiting is set while the reader is parked; the first Settle after
	// that clears it and sends the one wake the reader needs.
	waiting atomic.Bool
	wake    chan struct{}
	timer   *time.Timer

	// OnRelease, if set, observes each hand-out: entries [first, first+n)
	// left the gate at time at. The warm-up cut and the traced run's
	// release stamps hang off it.
	OnRelease func(first int64, batch []trace.Entry, at time.Time)

	reclaims int64
	waitNs   int64
}

// NewGate wraps src with a window of w entries.
func NewGate(src trace.BatchReader, w int) *Gate {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &Gate{src: src, window: int64(w), stall: gateStall, wake: make(chan struct{}, 1), timer: t}
}

// Settle records n entries as finished (answered or failed), returning
// their credits to the window.
func (g *Gate) Settle(n int64) {
	g.settled.Add(n)
	if g.waiting.CompareAndSwap(true, false) {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// Reclaims is how many times the gate gave up on an outstanding window;
// any non-zero value invalidates the run.
func (g *Gate) Reclaims() int64 { return g.reclaims }

// Waited is the total time the reader spent parked for credits.
func (g *Gate) Waited() time.Duration { return time.Duration(g.waitNs) }

func (g *Gate) credits() int64 { return g.window - (g.issued - g.settled.Load()) }

// Next implements trace.Reader.
func (g *Gate) Next() (trace.Entry, error) {
	var one [1]trace.Entry
	_, err := g.NextBatch(one[:])
	return one[0], err
}

// NextBatch implements trace.BatchReader: up to min(len(dst), credits)
// entries, blocking only while there are no credits at all.
func (g *Gate) NextBatch(dst []trace.Entry) (int, error) {
	c := g.credits()
	if c <= 0 {
		c = g.park()
	}
	if int64(len(dst)) > c {
		dst = dst[:c]
	}
	n, err := g.src.NextBatch(dst)
	if n > 0 {
		if g.OnRelease != nil {
			g.OnRelease(g.issued, dst[:n], time.Now())
		}
		g.issued += int64(n)
	}
	return n, err
}

// park blocks until a credit exists and returns the credit count.
func (g *Gate) park() int64 {
	start := time.Now()
	defer func() { g.waitNs += int64(time.Since(start)) }()
	for {
		g.waiting.Store(true)
		// Re-check after raising the flag: a Settle that ran between the
		// caller's check and the Store saw waiting == false and sent no
		// wake.
		if c := g.credits(); c > 0 {
			g.waiting.Store(false)
			return c
		}
		g.timer.Reset(g.stall)
		select {
		case <-g.wake:
			// go.mod is past 1.23: Stop alone guarantees no stale tick.
			g.timer.Stop()
		case <-g.timer.C:
			g.waiting.Store(false)
			if g.credits() <= 0 {
				// Nothing came back for a whole stall period: write the
				// outstanding entries off so the run ends, and count it.
				g.reclaims++
				g.settled.Store(g.issued)
			}
		}
		if c := g.credits(); c > 0 {
			return c
		}
	}
}
