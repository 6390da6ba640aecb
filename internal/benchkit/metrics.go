package benchkit

// MetricDef names one metric with its unit and which direction is better.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// PacedOnly marks the timing metrics: end-to-end on broot-udp-paced,
	// where the trace sets a schedule to be late against; on the closed
	// workloads fast mode has no schedule, so there they are ledger rows
	// (gate release → datagram sent) without a bound.
	PacedOnly bool `json:"-"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// EndToEnd are the metrics a user of the instrument sees, each with the
// share of the baseline median by which it may worsen before a change
// counts as a regression. The bounds are the ones the A/A sets in the
// README were checked against.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "goodput_qps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "answered_frac", Unit: "frac", Better: higher, Bound: 0.001},
	{Name: "cpu_us_per_query", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "allocs_per_query", Unit: "count", Better: lower, Bound: 0.05},
	{Name: "rss_peak_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "sched_err_p50_us", Unit: "us", Better: lower, Bound: 0.15, PacedOnly: true},
	{Name: "on_time_frac", Unit: "frac", Better: higher, Bound: 0.05, PacedOnly: true},
}

// PerLayer is the ledger: layer = module name. The README's prediction
// table says which end-to-end metric each row should move, and where.
var PerLayer = []MetricDef{
	{Name: "trace.decode_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "trace.decode_allocs_per_entry", Unit: "count", Better: lower},
	{Name: "trace.file_bytes_per_entry", Unit: "bytes", Better: lower},
	{Name: "trace.reader_busy_frac", Unit: "frac", Better: lower},
	{Name: "trace.encode_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "traceg.gen_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "mutate.ns_per_entry", Unit: "ns", Better: lower},
	{Name: "hierarchy.build_ms", Unit: "ms", Better: lower},
	{Name: "zone.records", Unit: "count", Better: lower},
	{Name: "zone.lookup_ns_per_query", Unit: "ns", Better: lower},
	{Name: "dnswire.unpack_ns_per_query", Unit: "ns", Better: lower},
	{Name: "dnswire.pack_ns_per_response", Unit: "ns", Better: lower},
	{Name: "authserver.respond_ns_per_query", Unit: "ns", Better: lower},
	{Name: "authserver.respond_allocs_per_query", Unit: "count", Better: lower},
	{Name: "authserver.cache_hit_frac", Unit: "frac", Better: higher},
	{Name: "authserver.resp_bytes_per_query", Unit: "bytes", Better: lower},
	{Name: "authserver.truncated", Unit: "count", Better: lower},
	{Name: "authserver.serve_udp_ns_per_query", Unit: "ns", Better: lower},
	{Name: "authserver.serve_tcp_ns_per_query", Unit: "ns", Better: lower},
	{Name: "authserver.tcp_conns_total", Unit: "count", Better: lower},
	{Name: "authserver.tcp_conns_open_peak", Unit: "count", Better: lower},
	{Name: "netio.send_ns_per_pkt_b1", Unit: "ns", Better: lower},
	{Name: "netio.send_ns_per_pkt_b64", Unit: "ns", Better: lower},
	{Name: "netio.recv_ns_per_pkt_b1", Unit: "ns", Better: lower},
	{Name: "netio.recv_ns_per_pkt_b64", Unit: "ns", Better: lower},
	{Name: "replay.sendonly_ns_per_query", Unit: "ns", Better: lower},
	{Name: "replay.sendonly_allocs_per_query", Unit: "count", Better: lower},
	{Name: "replay.send_batch_p50", Unit: "count", Better: higher},
	{Name: "replay.conns_opened", Unit: "count", Better: lower},
	{Name: "replay.duplicates", Unit: "count", Better: lower},
	{Name: "replay.unanswered", Unit: "count", Better: lower},
	{Name: "replay.errors", Unit: "count", Better: lower},
	{Name: "replay.stream_retries", Unit: "count", Better: lower},
	{Name: "replay.link_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "replay.sched_err_p90_us", Unit: "us", Better: lower},
	{Name: "replay.sched_err_p99_us", Unit: "us", Better: lower},
	{Name: "replay.sched_err_max_us", Unit: "us", Better: lower},
	{Name: "replay.sched_err_samples", Unit: "count", Better: higher},
	{Name: "replay.rate_err_p95_pct", Unit: "%", Better: lower},
	{Name: "replay.latency_p50_us", Unit: "us", Better: lower},
	{Name: "replay.latency_p90_us", Unit: "us", Better: lower},
	{Name: "replay.latency_p99_us", Unit: "us", Better: lower},
	{Name: "replay.latency_samples", Unit: "count", Better: higher},
	{Name: "replay.rtt_p50_us", Unit: "us", Better: lower},
	{Name: "replay.latency_matched_frac", Unit: "frac", Better: higher},
	{Name: "process.sys_cpu_frac", Unit: "frac", Better: lower},
	{Name: "process.ctx_switches_per_query", Unit: "count", Better: lower},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: lower},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: lower},
	{Name: "bench.gate_wait_frac", Unit: "frac", Better: lower},
	{Name: "bench.gate_reclaims", Unit: "count", Better: lower},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: lower},
	{Name: "bench.ledger_coverage_frac", Unit: "frac", Better: higher},
	{Name: "bench.wrong_answers", Unit: "count", Better: lower},
	{Name: "bench.checked_answers", Unit: "count", Better: higher},
}

// EndToEndFor returns the end-to-end metrics that apply to w: all eight
// on the paced workload, the six non-timing ones on the closed ones.
func EndToEndFor(w Workload) []MetricDef {
	var out []MetricDef
	for _, d := range EndToEnd {
		if !d.PacedOnly || w.Paced {
			out = append(out, d)
		}
	}
	return out
}

// PerLayerFor returns w's ledger rows: PerLayer, led by the timing
// metrics where they are not end-to-end.
func PerLayerFor(w Workload) []MetricDef {
	var out []MetricDef
	for _, d := range EndToEnd {
		if d.PacedOnly && !w.Paced {
			d.Bound, d.PacedOnly = 0, false
			out = append(out, d)
		}
	}
	return append(out, PerLayer...)
}

// ledgerCoverage are the rows whose per-query times add up without
// overlap: decode, the client's send side (kernel send included), and the
// server's userland answer. What they leave of cpu_us_per_query is the
// server's kernel time, the client's receive and match, the scheduler
// and glue.
var ledgerCoverage = []string{
	"trace.decode_ns_per_entry",
	"replay.sendonly_ns_per_query",
	"authserver.respond_ns_per_query",
}
