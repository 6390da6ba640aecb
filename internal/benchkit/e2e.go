package benchkit

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ldplayer/internal/trace"
)

// Metrics is one repetition's (or one run's) values by metric name.
type Metrics map[string]float64

// RepConfig is one repetition: replay TracePath (a block file BuildTrace
// wrote for Workload at Seed and Scale) through the whole pipeline.
type RepConfig struct {
	Workload  Workload
	Seed      int64
	Scale     float64
	TracePath string
	// Traced turns the observers on: per-query due/sent/received stamps,
	// a timed reader, both sides' obs instrumentation, and the per-response
	// output check. End-to-end numbers come from untraced repetitions.
	Traced bool
	// Spans, when set on a traced repetition, receives every span as one
	// JSON object per line after the run.
	Spans io.Writer
}

// RepResult is what one repetition measured.
type RepResult struct {
	Metrics Metrics `json:"metrics"`
	// Ops is the number of entries attempted over the whole replay,
	// FailedOps those never answered (unanswered, send errors, duplicates).
	Ops       int64 `json:"ops"`
	FailedOps int64 `json:"failed_ops"`
	// Violations lists every broken invariant; a repetition with any is
	// invalid and fails the command.
	Violations []string `json:"violations,omitempty"`
}

// answeredFloor is the answered fraction below which a run fails.
func (w Workload) answeredFloor() float64 {
	if w.Paced {
		return 0.995
	}
	return 0.999
}

// onTimeWithin is the on_time_frac tolerance.
const onTimeWithin = time.Millisecond

// snapshot is the process's resource state at one edge of the measured
// window.
type snapshot struct {
	at        time.Time
	cpu, sys  time.Duration
	ctxSw     int64
	allocs    uint64
	gcCPU     float64 // seconds
	responses int64
	readBusy  int64
	gateWait  time.Duration
	tcpOpen   int64
}

var snapshotSamples = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds"}

// takeSnapshot reads getrusage and runtime/metrics: no stop-the-world, so
// it is safe on the engine's own goroutines mid-run.
func takeSnapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	var s [2]metrics.Sample
	s[0].Name, s[1].Name = snapshotSamples[0], snapshotSamples[1]
	metrics.Read(s[:])
	return snapshot{
		at:     time.Now(),
		cpu:    tv(ru.Utime) + tv(ru.Stime),
		sys:    tv(ru.Stime),
		ctxSw:  ru.Nvcsw + ru.Nivcsw,
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
	}
}

// timedReader times every call into the real reader (traced runs).
type timedReader struct {
	src   trace.BatchReader
	busy  atomic.Int64
	calls []readSpan
}

type readSpan struct {
	start, end time.Time
	n          int
}

func (t *timedReader) Next() (trace.Entry, error) {
	var one [1]trace.Entry
	_, err := t.NextBatch(one[:])
	return one[0], err
}

func (t *timedReader) NextBatch(dst []trace.Entry) (int, error) {
	start := time.Now()
	n, err := t.src.NextBatch(dst)
	end := time.Now()
	t.busy.Add(int64(end.Sub(start)))
	t.calls = append(t.calls, readSpan{start, end, n})
	return n, err
}

// tracedState is everything a traced repetition records per query.
type tracedState struct {
	base     time.Time
	times    []int64 // entry timestamps, strictly increasing: the trace index of a send
	release  []int64 // closed workloads: when the gate handed the entry out
	st       *stamps
	match    *Matcher
	expected []uint32 // rcode<<16 | answer count from the reference path
	wrong    atomic.Int64
	checked  atomic.Int64
}

func (t *tracedState) since(at time.Time) int64 { return int64(at.Sub(t.base)) }

// index finds the trace position of a sent entry by its timestamp.
func (t *tracedState) index(e *trace.Entry) (int, bool) {
	ns := e.Time.UnixNano()
	i := sort.Search(len(t.times), func(i int) bool { return t.times[i] >= ns })
	return i, i < len(t.times) && t.times[i] == ns
}

func expect(resp []byte) uint32 {
	return uint32(resp[3]&0xF)<<16 | uint32(resp[6])<<8 | uint32(resp[7])
}

// onResponse stamps the receive time and checks the response against the
// reference answer: a response no entry could have caused, or one whose
// rcode or answer count differs from Engine.Respond's, is a wrong answer.
func (t *tracedState) onResponse(msg []byte, at time.Time) {
	switch i := t.match.Lookup(msg); {
	case i == matchUnknown || len(msg) < 12 || msg[2]&0x80 == 0:
		t.wrong.Add(1)
	case i >= 0:
		t.st.recv[i] = t.since(at)
		t.checked.Add(1)
		if expect(msg) != t.expected[i] {
			t.wrong.Add(1)
		}
	}
}

// loadTraced reads the trace once to build the observers' tables and asks
// the reference path for every answer.
func loadTraced(path string, h hierarchyT, closed bool) (*tracedState, error) {
	br, n, err := openBlockFile(path)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	ref, err := newAuthEngine(h)
	if err != nil {
		return nil, err
	}
	t := &tracedState{
		times:    make([]int64, 0, n),
		st:       newStamps(n),
		match:    NewMatcher(n),
		expected: make([]uint32, 0, n),
	}
	if closed {
		t.release = make([]int64, n)
	}
	buf := make([]trace.Entry, 4096)
	for {
		k, err := br.NextBatch(buf)
		for i := range buf[:k] {
			e := &buf[i]
			ns := e.Time.UnixNano()
			if len(t.times) > 0 && ns <= t.times[len(t.times)-1] {
				return nil, fmt.Errorf("benchkit: trace timestamps not strictly increasing at entry %d", len(t.times))
			}
			resp, err := respondReference(ref, e)
			if err != nil || len(resp) < 12 {
				return nil, fmt.Errorf("benchkit: reference path did not answer entry %d: %v", len(t.times), err)
			}
			t.match.Add(len(t.times), e.Message)
			t.times = append(t.times, ns)
			t.expected = append(t.expected, expect(resp))
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
	}
	return t, nil
}

// RunRepetition replays one trace file through the shipped pipeline —
// mmap block reader → replay engine → kernel loopback → meta-DNS-server →
// back to the client's pending table — and measures the window after the
// warm-up cut.
func RunRepetition(cfg RepConfig) (*RepResult, error) {
	w := cfg.Workload
	total, warm := w.Counts(cfg.Scale)

	// Set-up, timed: everything between the input file and the first entry
	// reaching the engine.
	setupStart := time.Now()
	slds, err := sldNames(cfg.Seed)
	if err != nil {
		return nil, err
	}
	h, err := buildHierarchy(slds)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(h, cfg.Traced)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	br, n, err := openBlockFile(cfg.TracePath)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	setup := time.Since(setupStart)
	if n != total {
		return nil, fmt.Errorf("benchkit: %s holds %d entries, want %d for %s at scale %g", cfg.TracePath, n, total, w.Name, cfg.Scale)
	}

	var tr *tracedState
	if cfg.Traced {
		if tr, err = loadTraced(cfg.TracePath, h, !w.Paced); err != nil {
			return nil, err
		}
	}

	var (
		responses, sends atomic.Int64
		cut, end         snapshot
		cutDone, endDone atomic.Bool
		gate             *Gate
		reader           trace.BatchReader = br
		timed            *timedReader
		schedErrs        []int64 // paced: |actual − due| per windowed send
	)
	if cfg.Traced {
		timed = &timedReader{src: br}
		reader = timed
	}
	edge := func(s *snapshot) {
		*s = takeSnapshot()
		s.responses = responses.Load()
		s.tcpOpen, _ = srv.TCPConns()
		if timed != nil {
			s.readBusy = timed.busy.Load()
		}
	}

	hooks := clientHooks{
		onResponse: func(msg []byte, at time.Time) {
			if tr != nil {
				tr.onResponse(msg, at)
			}
			got := responses.Add(1)
			if gate != nil {
				gate.Settle(1)
			}
			if got == int64(total) && endDone.CompareAndSwap(false, true) {
				edge(&end)
			}
		},
		onError: func(*trace.Entry, error) { // counted by the engine; only the credit returns here
			if gate != nil {
				gate.Settle(1)
			}
		},
	}
	if w.Paced {
		schedErrs = make([]int64, total)
	} else {
		gate = NewGate(reader, GateWindow)
		gate.OnRelease = func(first int64, batch []trace.Entry, at time.Time) {
			if tr != nil {
				ns := tr.since(at)
				for i := range batch {
					tr.release[first+int64(i)] = ns
				}
			}
			if int64(warm) < first+int64(len(batch)) && cutDone.CompareAndSwap(false, true) {
				edge(&cut)
				cut.gateWait = gate.Waited()
			}
		}
		reader = gate
	}
	if w.Paced || cfg.Traced {
		hooks.onSend = func(e *trace.Entry, at time.Time, schedErr time.Duration) {
			k := sends.Add(1)
			if w.Paced {
				// Paced sends leave the wheel goroutine in trace order, so
				// the count is the trace position.
				if k == int64(warm)+1 && cutDone.CompareAndSwap(false, true) {
					edge(&cut)
				}
				if k > int64(warm) && k <= int64(total) {
					schedErrs[k-1] = int64(schedErr.Abs())
				}
			}
			if tr != nil {
				if i, ok := tr.index(e); ok {
					sent := tr.since(at)
					tr.st.sent[i] = sent
					if w.Paced {
						tr.st.due[i] = sent - int64(schedErr)
					} else {
						tr.st.due[i] = tr.release[i]
					}
				}
			}
		}
	}

	en, err := newClient(srv.UDPAddr(), srv.TCPAddr(), !w.Paced, 0, hooks)
	if err != nil {
		return nil, err
	}
	var sendBatchP50 func() float64
	if cfg.Traced {
		sendBatchP50 = instrumentClient(en)
		tr.base = time.Now()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	st, err := replayTrace(ctx, en, reader)
	if err != nil {
		return nil, fmt.Errorf("benchkit: replay %s: %w", w.Name, err)
	}
	if endDone.CompareAndSwap(false, true) {
		edge(&end) // some responses never came: the window ends with the replay
	}
	if !cutDone.Load() {
		return nil, fmt.Errorf("benchkit: %s: replay ended before the warm-up cut", w.Name)
	}

	// ---- metrics ----
	m := Metrics{}
	res := &RepResult{Metrics: m, Ops: int64(total), FailedOps: int64(total) - st.Responses}
	answered := float64(end.responses - cut.responses)
	wall := end.at.Sub(cut.at)
	cpu := end.cpu - cut.cpu
	if answered <= 0 || wall <= 0 {
		return nil, fmt.Errorf("benchkit: %s: no responses in the measured window", w.Name)
	}
	m["setup_s"] = setup.Seconds()
	m["goodput_qps"] = answered / wall.Seconds()
	m["answered_frac"] = float64(st.Responses) / float64(total)
	m["cpu_us_per_query"] = float64(cpu.Microseconds()) / answered
	m["allocs_per_query"] = float64(end.allocs-cut.allocs) / answered
	m["rss_peak_mb"] = rssPeakMB()

	m["process.sys_cpu_frac"] = ratio(float64(end.sys-cut.sys), float64(cpu))
	m["process.ctx_switches_per_query"] = float64(end.ctxSw-cut.ctxSw) / answered
	m["runtime.gc_cpu_frac"] = ratio(end.gcCPU-cut.gcCPU, cpu.Seconds())
	m["runtime.heap_peak_mb"] = heapMappedMB()

	ss, cs := srv.Stats(), srv.Cache()
	m["authserver.cache_hit_frac"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	m["authserver.resp_bytes_per_query"] = ratio(float64(ss.ResponseBytes), float64(ss.Responses))
	m["authserver.truncated"] = float64(ss.Truncated)
	_, tcpTotal := srv.TCPConns()
	m["authserver.tcp_conns_total"] = float64(tcpTotal)
	m["authserver.tcp_conns_open_peak"] = float64(max(cut.tcpOpen, end.tcpOpen))

	m["replay.conns_opened"] = float64(st.ConnsOpened)
	m["replay.duplicates"] = float64(st.Duplicates)
	m["replay.unanswered"] = float64(st.Unanswered)
	m["replay.errors"] = float64(st.Errors)
	m["replay.stream_retries"] = float64(st.Retries)

	m["bench.gate_wait_frac"], m["bench.gate_reclaims"] = 0, 0
	if gate != nil {
		m["bench.gate_wait_frac"] = float64(gate.Waited()-cut.gateWait) / float64(wall)
		m["bench.gate_reclaims"] = float64(gate.Reclaims())
	}

	if w.Paced {
		errs := append([]int64(nil), schedErrs[warm:min(int(sends.Load()), total)]...)
		sortInt64(errs)
		schedMetrics(m, errs)
	}
	if cfg.Traced {
		tr.metrics(m, w, warm, sendBatchP50())
		m["trace.reader_busy_frac"] = float64(end.readBusy-cut.readBusy) / float64(wall)
		if cfg.Spans != nil {
			if err := tr.writeSpans(cfg.Spans, timed.calls, srv); err != nil {
				return nil, err
			}
		}
	}

	// ---- output checks ----
	fail := func(format string, a ...any) { res.Violations = append(res.Violations, fmt.Sprintf(format, a...)) }
	if f := m["answered_frac"]; f < w.answeredFloor() {
		fail("answered_frac %.5f below the floor %.3f (%d of %d answered, %d errors, %d duplicates)",
			f, w.answeredFloor(), st.Responses, total, st.Errors, st.Duplicates)
	}
	if r := m["bench.gate_reclaims"]; r != 0 {
		fail("gate reclaimed its window %v times: responses stopped for %v", r, gateStall)
	}
	if ss.Responses != ss.Queries {
		fail("server answered %d of %d queries", ss.Responses, ss.Queries)
	}
	if ss.FormErrs != 0 {
		fail("server returned %d FORMERRs", ss.FormErrs)
	}
	if slack := int64((1 - w.answeredFloor()) * float64(total)); abs64(ss.Responses-st.Responses) > slack {
		fail("client matched %d responses, server sent %d", st.Responses, ss.Responses)
	}
	if cfg.Traced {
		if wrong := tr.wrong.Load(); wrong != 0 {
			fail("%d responses differ from the reference path (ID, question, rcode or answer count)", wrong)
		}
	}
	return res, nil
}

// metrics adds the traced run's per-query numbers. On closed workloads a
// query is "due" when the gate releases it, so sched is the time an entry
// spends inside the engine before its datagram leaves; on the paced one
// it is the trace's own schedule.
func (t *tracedState) metrics(m Metrics, w Workload, warm int, sendBatchP50 float64) {
	sched, rtt, lat := t.st.spans(warm)
	if !w.Paced {
		schedMetrics(m, sched)
	}
	_, p90 := TailQuantile(lat, 0.5, 0.9)
	_, p99 := TailQuantile(lat, 0.5, 0.9, 0.99)
	m["replay.latency_p50_us"] = Quantile(lat, 0.5) / 1e3
	m["replay.latency_p90_us"] = p90 / 1e3
	m["replay.latency_p99_us"] = p99 / 1e3
	m["replay.latency_samples"] = float64(len(lat))
	m["replay.rtt_p50_us"] = Quantile(rtt, 0.5) / 1e3
	m["replay.latency_matched_frac"] = t.match.Matched()
	m["replay.send_batch_p50"] = sendBatchP50
	m["replay.rate_err_p95_pct"] = 0
	if w.Paced {
		m["replay.rate_err_p95_pct"] = rateErrP95(t.times[warm:], t.st.sent[warm:])
	}
	m["bench.wrong_answers"] = float64(t.wrong.Load())
	m["bench.checked_answers"] = float64(t.checked.Load())
}

// schedMetrics fills the timing rows from sorted |actual − due| samples.
func schedMetrics(m Metrics, errs []int64) {
	onTime := sort.Search(len(errs), func(i int) bool { return errs[i] > int64(onTimeWithin) })
	_, p90 := TailQuantile(errs, 0.5, 0.9)
	_, p99 := TailQuantile(errs, 0.5, 0.9, 0.99)
	m["sched_err_p50_us"] = Quantile(errs, 0.5) / 1e3
	m["on_time_frac"] = ratio(float64(onTime), float64(len(errs)))
	m["replay.sched_err_p90_us"] = p90 / 1e3
	m["replay.sched_err_p99_us"] = p99 / 1e3
	m["replay.sched_err_max_us"] = Quantile(errs, 1) / 1e3
	m["replay.sched_err_samples"] = float64(len(errs))
}

// rateBucket is the Figure 8 comparison's resolution. The paper compares
// per-second rates; runs here last a few seconds, so tenths of a second
// give the percentile enough samples.
const rateBucket = 100 * time.Millisecond

// rateErrP95 compares how many queries the trace schedules in each
// rateBucket with how many were actually sent in it, and returns the 95th
// percentile of the relative difference in percent.
func rateErrP95(due, sent []int64) float64 {
	if len(due) == 0 {
		return 0
	}
	var sent0 int64
	for _, s := range sent {
		if s != 0 && (sent0 == 0 || s < sent0) {
			sent0 = s
		}
	}
	buckets := int((due[len(due)-1]-due[0])/int64(rateBucket)) + 1
	want, got := make([]int64, buckets), make([]int64, buckets)
	for i := range due {
		want[(due[i]-due[0])/int64(rateBucket)]++
		if b := (sent[i] - sent0) / int64(rateBucket); sent[i] != 0 && b < int64(buckets) {
			got[b]++
		}
	}
	// The last bucket is partial on both sides; leave it out.
	errs := make([]int64, 0, buckets)
	for b := 0; b < buckets-1; b++ {
		if want[b] > 0 {
			errs = append(errs, abs64(got[b]-want[b])*100_000/want[b]) // milli-percent
		}
	}
	if len(errs) == 0 {
		return 0
	}
	sortInt64(errs)
	return Quantile(errs, 0.95) / 1e3
}

// spanLine is one span of the -trace-out stream. Spans of one query share
// id, its position in the trace; parent names the span that caused this
// one.
type spanLine struct {
	Span    string `json:"span"`
	ID      int    `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	N       int    `json:"n,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// writeSpans streams every recorded span as JSON lines: the reader's
// calls, each query's sched and rtt spans, and the server tracer's
// sampled recv→view→lookup→pack spans.
func (t *tracedState) writeSpans(out io.Writer, reads []readSpan, srv *Server) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	for i, r := range reads {
		if err := enc.Encode(spanLine{Span: "trace.next_batch", ID: i, StartNs: t.since(r.start), EndNs: t.since(r.end), N: r.n}); err != nil {
			return err
		}
	}
	for i, sent := range t.st.sent {
		if sent == 0 {
			continue
		}
		if err := enc.Encode(spanLine{Span: "replay.sched", ID: i, StartNs: t.st.due[i], EndNs: sent}); err != nil {
			return err
		}
		if recv := t.st.recv[i]; recv != 0 {
			if err := enc.Encode(spanLine{Span: "replay.rtt", ID: i, Parent: "replay.sched", StartNs: sent, EndNs: recv}); err != nil {
				return err
			}
		}
	}
	for _, sp := range srv.recentSpans() {
		start := t.since(sp.Start)
		prev := start
		for _, mk := range sp.Marks() {
			at := start + int64(mk.At)
			if err := enc.Encode(spanLine{Span: "authserver." + mk.Label, ID: int(sp.Seq), Parent: "authserver.query", StartNs: prev, EndNs: at, Detail: sp.Detail}); err != nil {
				return err
			}
			prev = at
		}
		if err := enc.Encode(spanLine{Span: "authserver.query", ID: int(sp.Seq), StartNs: start, EndNs: start + int64(sp.Dur), Detail: sp.Detail}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

var heapClasses = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/released:bytes",
}

// heapMappedMB is the heap address space the runtime has ever mapped
// (MemStats.HeapSys): it only grows, so at exit it is the heap's peak.
func heapMappedMB() float64 {
	s := make([]metrics.Sample, len(heapClasses))
	for i := range s {
		s[i].Name = heapClasses[i]
	}
	metrics.Read(s)
	var total uint64
	for i := range s {
		total += s[i].Value.Uint64()
	}
	return float64(total) / (1 << 20)
}
