package benchkit

import (
	"bytes"
	"io"
	"math"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

func TestMedianMAD(t *testing.T) {
	for _, tc := range []struct {
		xs       []float64
		med, mad float64
	}{
		{[]float64{3}, 3, 0},
		{[]float64{4, 1, 3, 2}, 2.5, 1},
		{[]float64{1, 2, 3, 4, 100}, 3, 1}, // one slow repetition moves neither
	} {
		if got := Median(tc.xs); got != tc.med {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		if got := MAD(tc.xs); got != tc.mad {
			t.Errorf("MAD(%v) = %v, want %v", tc.xs, got, tc.mad)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	s := Summarize([]float64{5, 1, 9})
	if s.Min != 1 || s.Max != 9 || s.N != 3 || s.Median != 5 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]int64, 500)
	for i := range xs {
		xs[i] = int64(i)
	}
	// 500 samples leave 5 beyond p99 but 50 beyond p90.
	if q, _ := TailQuantile(xs, 0.5, 0.9, 0.99); q != 0.9 {
		t.Errorf("500 samples: picked p%v, want p90", q*100)
	}
	if q, v := TailQuantile(xs[:15], 0.5, 0.9, 0.99); q != 0.5 || v != 7 {
		t.Errorf("15 samples: picked p%v = %v, want the median 7", q*100, v)
	}
	xs = append(xs, make([]int64, 500)...)
	if q, _ := TailQuantile(xs, 0.5, 0.9, 0.99); q != 0.99 {
		t.Errorf("1000 samples: picked p%v, want p99", q*100)
	}
}

func testEntries(n int) []trace.Entry {
	es := make([]trace.Entry, n)
	for i := range es {
		es[i] = trace.Entry{Time: time.Unix(0, int64(i+1)), Message: []byte{byte(i >> 8), byte(i)}}
	}
	return es
}

func TestGateHandsOutShortBatches(t *testing.T) {
	g := NewGate(trace.NewSliceReader(testEntries(100)), 8)
	dst := make([]trace.Entry, 64)
	if n, err := g.NextBatch(dst); n != 8 || err != nil {
		t.Fatalf("first batch = %d, %v; want the 8 the window allows", n, err)
	}
	g.Settle(3)
	if n, _ := g.NextBatch(dst); n != 3 {
		t.Fatalf("after 3 settled the gate handed out %d, want 3", n)
	}
	if dst[0].Time.UnixNano() != 9 {
		t.Errorf("entries out of order: got entry at %d, want 9", dst[0].Time.UnixNano())
	}
	if g.Reclaims() != 0 {
		t.Errorf("reclaims = %d", g.Reclaims())
	}
}

// The engine asks for 4096 entries at a time; a gate that waited to fill
// that from a window of 4 would never return.
func TestGateNoDeadlockWhenWindowBelowBatch(t *testing.T) {
	const n, w = 5000, 4
	g := NewGate(trace.NewSliceReader(testEntries(n)), w)
	released := make(chan int, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the "responses": settle whatever was released
		defer wg.Done()
		for k := range released {
			g.Settle(int64(k))
		}
	}()
	dst := make([]trace.Entry, 4096)
	total := 0
	for {
		k, err := g.NextBatch(dst)
		if k > w {
			t.Fatalf("batch of %d exceeds the window %d", k, w)
		}
		total += k
		if err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		released <- k
	}
	close(released)
	wg.Wait()
	if total != n || g.Reclaims() != 0 {
		t.Fatalf("released %d of %d, %d reclaims", total, n, g.Reclaims())
	}
}

func TestGateReclaimsAStalledWindow(t *testing.T) {
	g := NewGate(trace.NewSliceReader(testEntries(10)), 2)
	g.stall = 5 * time.Millisecond
	dst := make([]trace.Entry, 8)
	if n, _ := g.NextBatch(dst); n != 2 {
		t.Fatalf("first batch = %d", n)
	}
	start := time.Now()
	n, err := g.NextBatch(dst) // nobody settles: the window is lost
	if n != 2 || err != nil {
		t.Fatalf("after the stall the gate handed out %d, %v; want a fresh window of 2", n, err)
	}
	if g.Reclaims() != 1 {
		t.Errorf("reclaims = %d, want 1", g.Reclaims())
	}
	if time.Since(start) < g.stall || g.Waited() < g.stall {
		t.Errorf("gate waited %v (accounted %v), less than the stall %v", time.Since(start), g.Waited(), g.stall)
	}
}

func TestWarmupCutIsAFixedCount(t *testing.T) {
	for _, tc := range []struct {
		name        string
		scale       float64
		total, warm int
	}{
		{"broot-udp-closed", 1, 1_300_000, 130_000},
		{"hot-udp-closed", 0.02, 36_000, 3_600},
		{"broot-tcp-closed", 0.5, 350_000, 35_000},
		{"broot-udp-paced", 1, 140_000, 20_000}, // one second of trace
		{"broot-udp-paced", 0.5, 80_000, 20_000},
		{"broot-udp-paced", 0.02, 3_600, 1_200}, // a run shorter than 2 s halves
	} {
		w, ok := WorkloadByName(tc.name)
		if !ok {
			t.Fatalf("no workload %s", tc.name)
		}
		if total, warm := w.Counts(tc.scale); total != tc.total || warm != tc.warm {
			t.Errorf("%s at %g: %d entries, %d warm-up; want %d, %d", tc.name, tc.scale, total, warm, tc.total, tc.warm)
		}
	}
}

func readBlockTrace(t *testing.T, b []byte) []trace.Entry {
	t.Helper()
	r, err := trace.NewBlockReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	es, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		es[i] = es[i].Clone()
	}
	return es
}

func TestBuildTraceIsSeededAndRewritesIDsPerSource(t *testing.T) {
	for _, w := range Workloads {
		var a, b, c bytes.Buffer
		n, err := BuildTrace(w, 7, 0.01, &a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildTrace(w, 7, 0.01, &b); err != nil {
			t.Fatal(err)
		}
		if _, err := BuildTrace(w, 8, 0.01, &c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		if bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Errorf("%s: different seeds gave the same inputs", w.Name)
		}
		es := readBlockTrace(t, a.Bytes())
		total, warm := w.Counts(0.01)
		if n != total || len(es) != total {
			t.Fatalf("%s: %d entries written, %d read, want %d", w.Name, n, len(es), total)
		}
		next := map[netip.Addr]uint16{}
		for i, e := range es {
			next[e.Src.Addr()]++
			if id := uint16(e.Message[0])<<8 | uint16(e.Message[1]); id != next[e.Src.Addr()] {
				t.Fatalf("%s: entry %d from %v has ID %d, want that source's counter %d", w.Name, i, e.Src.Addr(), id, next[e.Src.Addr()])
			}
			if i > 0 && !e.Time.After(es[i-1].Time) {
				t.Fatalf("%s: entry %d is not later than its predecessor", w.Name, i)
			}
			want := trace.UDP
			if w.TCP {
				want = trace.TCP
			}
			if e.Protocol != want {
				t.Fatalf("%s: entry %d is %v, want %v", w.Name, i, e.Protocol, want)
			}
		}
		if w.Paced {
			// The measured window offers exactly PacedRate whatever the seed drew.
			span := es[total-1].Time.Sub(es[warm].Time).Seconds()
			if rate := float64(total-1-warm) / span; math.Abs(rate-PacedRate) > 1 {
				t.Errorf("%s: window offers %.1f q/s, want %d", w.Name, rate, PacedRate)
			}
		}
	}
}

func query(id uint16, name string) []byte {
	m := []byte{byte(id >> 8), byte(id), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, l := range bytes.Split([]byte(name), []byte(".")) {
		if len(l) > 0 {
			m = append(append(m, byte(len(l))), l...)
		}
	}
	return append(m, 0, 0, 1, 0, 1)
}

func response(q []byte, rcode byte, answers uint16) []byte {
	r := append([]byte(nil), q...)
	r[2] |= 0x80
	r[3] = rcode
	r[6], r[7] = byte(answers>>8), byte(answers)
	return append(r, 0xde, 0xad) // whatever follows the question is not part of the key
}

func TestMatcherExcludesCollidingKeys(t *testing.T) {
	qs := [][]byte{
		query(1, "a.example."),
		query(1, "."), // two light sources both prime with ID 1
		query(2, "a.example."),
		query(1, "."),
		query(1, "."),
	}
	m := NewMatcher(len(qs))
	for i, q := range qs {
		m.Add(i, q)
	}
	if got := m.Lookup(response(qs[0], 3, 0)); got != 0 {
		t.Errorf("unique key matched entry %d, want 0", got)
	}
	if got := m.Lookup(response(qs[2], 0, 1)); got != 2 {
		t.Errorf("same question, other ID matched entry %d, want 2", got)
	}
	if got := m.Lookup(response(qs[1], 0, 13)); got != matchCollided {
		t.Errorf("colliding key matched %d, want it excluded", got)
	}
	if got := m.Lookup(response(query(9, "nobody.asked."), 0, 0)); got != matchUnknown {
		t.Errorf("a response nobody asked for matched %d", got)
	}
	if got, want := m.Matched(), 2.0/5; got != want {
		t.Errorf("Matched() = %v, want %v", got, want)
	}
}

// Today OnSend fires after sendmmsg returns, so on loopback a response
// can be stamped before its own send. Latency must not care.
func TestLatencyIsIndependentOfCallbackOrder(t *testing.T) {
	run := func(responseFirst bool) (sched, rtt, lat []int64) {
		tr := &tracedState{
			base:     time.Unix(100, 0),
			times:    []int64{10, 20, 30},
			release:  []int64{1000, 2000, 3000},
			st:       newStamps(3),
			match:    NewMatcher(3),
			expected: make([]uint32, 3),
		}
		es := testEntries(3)
		for i := range es {
			es[i].Time = time.Unix(0, tr.times[i])
			es[i].Message = query(uint16(i+1), "q.example.")
			tr.match.Add(i, es[i].Message)
			tr.expected[i] = expect(response(es[i].Message, 0, 1))
		}
		send := func(i int) {
			idx, ok := tr.index(&es[i])
			if !ok || idx != i {
				t.Fatalf("entry %d resolved to %d, %v", i, idx, ok)
			}
			tr.st.sent[idx] = tr.release[idx] + 500
			tr.st.due[idx] = tr.release[idx]
		}
		recv := func(i int) {
			tr.onResponse(response(es[i].Message, 0, 1), tr.base.Add(time.Duration(tr.release[i]+2500)))
		}
		for i := range es {
			if responseFirst {
				recv(i)
				send(i)
			} else {
				send(i)
				recv(i)
			}
		}
		if tr.wrong.Load() != 0 || tr.checked.Load() != 3 {
			t.Fatalf("wrong %d checked %d", tr.wrong.Load(), tr.checked.Load())
		}
		return tr.st.spans(0)
	}
	s1, r1, l1 := run(false)
	s2, r2, l2 := run(true)
	for i := range l1 {
		if s1[i] != 500 || r1[i] != 2000 || l1[i] != 2500 {
			t.Errorf("query %d: sched %d rtt %d latency %d, want 500 2000 2500", i, s1[i], r1[i], l1[i])
		}
		if s1[i] != s2[i] || r1[i] != r2[i] || l1[i] != l2[i] {
			t.Errorf("query %d: spans depend on which callback fired first", i)
		}
	}
}

func TestWrongAnswersAreCounted(t *testing.T) {
	q := query(1, "q.example.")
	tr := &tracedState{base: time.Now(), st: newStamps(1), match: NewMatcher(1), expected: []uint32{expect(response(q, 3, 0))}}
	tr.match.Add(0, q)
	tr.onResponse(response(q, 3, 0), time.Now())
	if tr.wrong.Load() != 0 {
		t.Fatal("the reference answer was counted wrong")
	}
	tr.onResponse(response(q, 0, 0), time.Now())              // rcode differs
	tr.onResponse(response(q, 3, 2), time.Now())              // answer count differs
	tr.onResponse(response(query(2, "x."), 3, 0), time.Now()) // nobody asked
	tr.onResponse(q, time.Now())                              // not a response at all
	if got := tr.wrong.Load(); got != 4 {
		t.Errorf("wrong answers = %d, want 4", got)
	}
}
