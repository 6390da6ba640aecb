package benchkit

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"ldplayer/internal/trace"
)

// Workload is one named traffic mix. Run length is a count of entries,
// never a wall time: Entries is the length at scale 1, sized so a
// repetition measures about six seconds on the 2-CPU box the prototype
// ran on.
type Workload struct {
	Name string
	// Why is the one-line reason BENCHMARK.json carries; the README has
	// the long form.
	Why     string
	Entries int
	Hot     bool // few flows, ~1.1k distinct questions
	TCP     bool // pushed through mutate: protocol → TCP
	Paced   bool // real-time open loop at PacedRate, no gate
}

// PacedRate is the paced workload's offered load: exactly this many
// queries per second across the measured window (the per-second variation
// inside it is the generator's).
const PacedRate = 20000

// pacedHeavyShare spreads the paced load evenly over the 1000 sources: the
// busy 1% carry 1%. An open loop has no window to keep a socket's queue
// inside its receive buffer (see GateWindow), and the wheel's spin loop
// leaves waking the socket readers to sysmon's netpoll, so with one other
// busy process on the box the default mix's busiest source (14% of the
// load, 2900 responses a second into a 212992-byte buffer) lost 700-2300
// of 70 000 responses in 2 repetitions of 12. At 20 a second per socket a
// reader would have to starve for ten seconds. What this workload is for,
// the wheel, does not depend on which source an entry belongs to.
const pacedHeavyShare = 0.01

// pacedWarm is the paced warm-up: one second of trace.
const pacedWarm = PacedRate

// Workloads are the benchmark's four, in run order.
var Workloads = []Workload{
	{
		Name:    "broot-udp-closed",
		Why:     "1000 flows, ~15% response-cache hits: per-socket send/recv/match in replay and the authserver miss path (zone.Lookup, dnswire pack, cache insert) do most of the work",
		Entries: 1_300_000,
	},
	{
		Name:    "hot-udp-closed",
		Why:     "16 flows, ~100% cache hits: wide sendmmsg/GSO/GRO batches in netio, the cache-hit path and trace decode have their largest share; miss path and per-socket cost almost none",
		Entries: 1_800_000,
		Hot:     true,
	},
	{
		Name:    "broot-tcp-closed",
		Why:     "the broot trace mutated to TCP: connection set-up, RFC 1035 framing, per-connection goroutines and state in the same replay and authserver layers",
		Entries: 700_000,
		TCP:     true,
	},
	{
		Name:    "broot-udp-paced",
		Why:     "open loop at 20k q/s in real time: the only workload that runs the timing wheel, so scheduling error and pacing CPU show here and per-packet gains should not",
		Entries: 7 * PacedRate,
		Paced:   true,
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Counts returns the trace length at scale and how many leading entries
// are warm-up: replayed (sockets opened, response caches filled) but
// excluded from every metric. Closed workloads warm up on the first 10%;
// the paced one on its first second, shortened only when the whole run
// is shorter than two.
func (w Workload) Counts(scale float64) (total, warm int) {
	if w.Paced {
		window := int(math.Round(float64(w.Entries-pacedWarm) * scale))
		warm = min(pacedWarm, window/2)
		return warm + window, warm
	}
	total = int(math.Round(float64(w.Entries) * scale))
	return total, total / 10
}

// idRewriter gives every source its own sequential DNS ID counter.
//
// The engine matches and de-duplicates responses by ID per socket (one
// socket per source). The generators draw IDs at random, so on the broot
// trace a deterministic 2.1% of responses hit an ID still in the socket's
// answered ring and are discarded as "duplicates" although the server
// answered every query. A global sequence (seq mod 65536) still loses
// 0.38%: a light source can be handed an ID it used 2048 queries of
// *other* sources ago. A per-source counter reuses an ID only after that
// source's own 65535 later queries, far outside the ring.
type idRewriter map[netip.Addr]uint16

// apply publishes a fresh buffer: Entry.Message is immutable once
// produced, and the hot generator hands out shared ones.
func (r idRewriter) apply(e *trace.Entry) {
	id := r[e.Src.Addr()] + 1
	r[e.Src.Addr()] = id
	msg := make([]byte, len(e.Message))
	copy(msg, e.Message)
	msg[0], msg[1] = byte(id>>8), byte(id)
	e.Message = msg
}

// hotSource is the hot-udp-closed generator: 16 sources asking Zipf(1.2)
// over the apex and www names of the hierarchy's SLDs.
type hotSource struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	wires [][]byte
	now   time.Time
}

func newHotSource(seed int64, slds []string) (*hotSource, error) {
	h := &hotSource{rng: rand.New(rand.NewSource(seed)), now: time.Unix(1_492_000_000, 0)}
	for _, sld := range slds {
		for _, name := range []string{sld, "www." + sld} {
			w, err := packQuery(name)
			if err != nil {
				return nil, err
			}
			h.wires = append(h.wires, w)
		}
	}
	h.zipf = rand.NewZipf(h.rng, 1.2, 4, uint64(len(h.wires)-1))
	return h, nil
}

func (h *hotSource) Next() (trace.Entry, error) {
	h.now = h.now.Add(5 * time.Microsecond)
	src := netip.AddrFrom4([4]byte{10, 0, 0, byte(h.rng.Intn(16))})
	return trace.Entry{
		Time:     h.now,
		Src:      netip.AddrPortFrom(src, 5353),
		Dst:      netip.MustParseAddrPort("199.9.14.201:53"),
		Protocol: trace.UDP,
		Message:  h.wires[h.zipf.Uint64()],
	}, nil
}

// source returns the workload's raw generator.
func (w Workload) source(seed int64, total int) (trace.Reader, error) {
	if w.Hot {
		slds, err := sldNames(seed)
		if err != nil {
			return nil, err
		}
		return newHotSource(seed, slds)
	}
	if w.Paced {
		return brootSource(seed, PacedRate, total, pacedHeavyShare)
	}
	return brootSource(seed, 100_000, total, 0) // closed workloads ignore trace timing
}

// BuildTrace generates the workload's inputs from seed and writes them as
// an LDTRC02 block file: generator → per-source ID rewrite → (mutate) →
// BlockWriter. Timestamps are made strictly increasing so a timestamp
// identifies its entry. It returns the entry count.
func BuildTrace(w Workload, seed int64, scale float64, out io.Writer) (int, error) {
	total, warm := w.Counts(scale)
	if total <= 0 {
		return 0, fmt.Errorf("benchkit: %s at scale %g has no entries", w.Name, scale)
	}
	src, err := w.source(seed, total)
	if err != nil {
		return 0, err
	}
	ids := idRewriter{}
	var prev time.Time
	made := 0
	next := func() (trace.Entry, error) {
		e, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return e, fmt.Errorf("benchkit: %s: generator ended after %d of %d entries: %w", w.Name, made, total, err)
		}
		made++
		ids.apply(&e)
		if !e.Time.After(prev) {
			e.Time = prev.Add(time.Nanosecond)
		}
		prev = e.Time
		return e, nil
	}
	write, finish := blockSink(out)

	switch {
	case w.Paced:
		// Buffer the (short) trace to fit its clock: the measured window
		// must offer exactly PacedRate, whatever per-second rates the seed
		// drew, or goodput and CPU per query would track the seed.
		entries := make([]trace.Entry, 0, total)
		for len(entries) < total {
			e, err := next()
			if err != nil {
				return 0, err
			}
			entries = append(entries, e)
		}
		span := entries[total-1].Time.Sub(entries[warm].Time)
		want := time.Duration(float64(total-1-warm) / PacedRate * float64(time.Second))
		fit := scaleTime(float64(want) / float64(span))
		for i := range entries {
			if err := fit(&entries[i]); err != nil {
				return 0, err
			}
			if i > 0 && !entries[i].Time.After(entries[i-1].Time) {
				entries[i].Time = entries[i-1].Time.Add(time.Nanosecond)
			}
			if err := write(entries[i]); err != nil {
				return 0, err
			}
		}
	default:
		var tcp func(*trace.Entry) error
		if w.TCP {
			tcp = forceTCP()
		}
		for n := 0; n < total; n++ {
			e, err := next()
			if err != nil {
				return 0, err
			}
			if tcp != nil {
				if err := tcp(&e); err != nil {
					return 0, err
				}
			}
			if err := write(e); err != nil {
				return 0, err
			}
		}
	}
	return total, finish()
}
