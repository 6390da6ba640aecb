package benchkit

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Options shape one set of runs.
type Options struct {
	Seed      int64
	Workloads []Workload
	// Reps is the number of untraced repetitions per workload; the value
	// of an end-to-end metric is their median.
	Reps int
	// Scale multiplies every workload's entry count (1 = about six
	// measured seconds per repetition on the prototype's box).
	Scale float64
	// SetupReps is how many times the inputs are generated; set-up time is
	// the median, and every generation must produce the same bytes.
	SetupReps int
	// Trace adds one traced repetition and the isolated-layer rows per
	// workload.
	Trace bool
	// TraceOut, with Trace, names a file that receives the spans as JSON
	// lines (one file per workload, the name suffixed).
	TraceOut string
	// WorkDir holds the generated block files; it is created, and the
	// files removed afterwards.
	WorkDir string
	// Exe is the ldbench binary to run every repetition in as a fresh
	// child process (`Exe -one <workload> ...`). Empty runs repetitions
	// in-process: for tests only, since RSS and allocation counts then
	// carry over between repetitions.
	Exe string
	// Log receives progress lines.
	Log io.Writer
}

// MetricReport is one metric of one workload in the report.
type MetricReport struct {
	MetricDef
	Summary
}

// WorkloadReport is everything measured for one workload.
type WorkloadReport struct {
	Name       string         `json:"name"`
	Why        string         `json:"why"`
	Entries    int            `json:"entries"`
	Warmup     int            `json:"warmup_entries"`
	Ops        int64          `json:"ops"`
	FailedOps  int64          `json:"failed_ops"`
	EndToEnd   []MetricReport `json:"end_to_end"`
	PerLayer   []MetricReport `json:"per_layer,omitempty"`
	Violations []string       `json:"violations,omitempty"`
}

// Env records where the numbers came from.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

// Report is the JSON document one set of runs produces.
type Report struct {
	Benchmark string           `json:"benchmark"`
	Seed      int64            `json:"seed"`
	Scale     float64          `json:"scale"`
	Reps      int              `json:"reps"`
	Window    int              `json:"gate_window"`
	Env       Env              `json:"env"`
	Workloads []WorkloadReport `json:"workloads"`
}

func currentEnv() Env {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernel,
		Network:    "client and server are one process; every query and response crossed the host loopback interface (127.0.0.1), no real link",
	}
}

// Metric finds a metric in either list.
func (w *WorkloadReport) Metric(name string) (MetricReport, bool) {
	for _, list := range [][]MetricReport{w.EndToEnd, w.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return MetricReport{}, false
}

// Failed reports whether any workload broke an invariant.
func (r *Report) Failed() bool {
	for i := range r.Workloads {
		if len(r.Workloads[i].Violations) > 0 {
			return true
		}
	}
	return false
}

// Run executes one set: inputs generated once per seed (SetupReps times
// over, timed), then every repetition in a fresh child process,
// round-robin across workloads so drift on a shared box lands on all of
// them alike, then the traced repetition and the ledger.
func Run(o Options) (*Report, error) {
	if o.Reps <= 0 || o.Scale <= 0 || len(o.Workloads) == 0 {
		return nil, fmt.Errorf("benchkit: need reps > 0, scale > 0 and at least one workload")
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, err
	}
	rep := &Report{Benchmark: "ldbench", Seed: o.Seed, Scale: o.Scale, Reps: o.Reps, Window: GateWindow, Env: currentEnv()}

	type state struct {
		w      Workload
		path   string
		gen    []float64
		reps   []*RepResult
		traced *RepResult
	}
	states := make([]*state, len(o.Workloads))
	for i, w := range o.Workloads {
		s := &state{w: w, path: filepath.Join(o.WorkDir, fmt.Sprintf("%s.seed%d.blk", w.Name, o.Seed))}
		states[i] = s
		defer os.Remove(s.path)
		var sum [sha256.Size]byte
		for k := 0; k < max(1, o.SetupReps); k++ {
			t0 := time.Now()
			got, err := generate(w, o.Seed, o.Scale, s.path)
			if err != nil {
				return nil, err
			}
			s.gen = append(s.gen, time.Since(t0).Seconds())
			if k > 0 && got != sum {
				return nil, fmt.Errorf("benchkit: %s: seed %d generated different inputs on the second pass", w.Name, o.Seed)
			}
			sum = got
		}
		fmt.Fprintf(o.Log, "%s: inputs generated in %.3fs (median of %.3f)\n", w.Name, Median(s.gen), s.gen)
	}

	for r := 0; r < o.Reps; r++ {
		for _, s := range states {
			res, err := o.repetition(RepConfig{Workload: s.w, Seed: o.Seed, Scale: o.Scale, TracePath: s.path}, "")
			if err != nil {
				return nil, err
			}
			s.reps = append(s.reps, res)
			fmt.Fprintf(o.Log, "%s: rep %d/%d goodput %.0f q/s answered %.5f cpu %.2f us/q\n", s.w.Name, r+1, o.Reps,
				res.Metrics["goodput_qps"], res.Metrics["answered_frac"], res.Metrics["cpu_us_per_query"])
		}
	}
	if o.Trace {
		for _, s := range states {
			out := ""
			if o.TraceOut != "" {
				out = o.TraceOut + "." + s.w.Name + ".jsonl"
			}
			res, err := o.repetition(RepConfig{Workload: s.w, Seed: o.Seed, Scale: o.Scale, TracePath: s.path, Traced: true}, out)
			if err != nil {
				return nil, err
			}
			s.traced = res
			fmt.Fprintf(o.Log, "%s: traced rep goodput %.0f q/s, %d ledger rows\n", s.w.Name, res.Metrics["goodput_qps"], len(res.Metrics))
		}
	}

	for _, s := range states {
		total, warm := s.w.Counts(o.Scale)
		wr := WorkloadReport{Name: s.w.Name, Why: s.w.Why, Entries: total, Warmup: warm}
		series := map[string][]float64{}
		for _, r := range s.reps {
			wr.Ops += r.Ops
			wr.FailedOps += r.FailedOps
			wr.Violations = append(wr.Violations, r.Violations...)
			for k, v := range r.Metrics {
				series[k] = append(series[k], v)
			}
		}
		// Set-up is the parent's share (inputs, a median already) plus each
		// child's (zones, server, reader).
		for i := range series["setup_s"] {
			series["setup_s"][i] += Median(s.gen)
		}
		for _, d := range EndToEndFor(s.w) {
			vals, ok := series[d.Name]
			if !ok {
				wr.Violations = append(wr.Violations, "metric missing from the output: "+d.Name)
				continue
			}
			wr.EndToEnd = append(wr.EndToEnd, MetricReport{d, Summarize(vals)})
		}
		if s.traced != nil {
			wr.Violations = append(wr.Violations, s.traced.Violations...)
			layer := s.traced.Metrics
			layer["bench.trace_overhead_frac"] = 1 - ratio(layer["goodput_qps"], Median(series["goodput_qps"]))
			var covered float64
			for _, name := range ledgerCoverage {
				covered += layer[name]
			}
			layer["bench.ledger_coverage_frac"] = ratio(covered, Median(series["cpu_us_per_query"])*1e3)
			for _, d := range PerLayerFor(s.w) {
				// A row every repetition produces is reported from the untraced
				// ones, like the end-to-end metrics; the traced repetition and
				// the isolated rows supply the rest.
				vals, ok := series[d.Name]
				if v, traced := layer[d.Name]; !ok && traced {
					vals, ok = []float64{v}, true
				}
				if !ok {
					wr.Violations = append(wr.Violations, "metric missing from the output: "+d.Name)
					continue
				}
				wr.PerLayer = append(wr.PerLayer, MetricReport{d, Summarize(vals)})
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// generate writes w's block file and returns its hash.
func generate(w Workload, seed int64, scale float64, path string) (sum [sha256.Size]byte, err error) {
	f, err := os.Create(path)
	if err != nil {
		return sum, err
	}
	h := sha256.New()
	if _, err = BuildTrace(w, seed, scale, io.MultiWriter(f, h)); err != nil {
		f.Close()
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, f.Close()
}

// repetition runs one repetition, in a child when o.Exe is set.
func (o Options) repetition(cfg RepConfig, spansPath string) (*RepResult, error) {
	if o.Exe == "" {
		return RunChild(cfg, spansPath)
	}
	args := []string{"-one", cfg.Workload.Name, "-in", cfg.TracePath,
		"-seed", strconv.FormatInt(cfg.Seed, 10), "-scale", strconv.FormatFloat(cfg.Scale, 'g', -1, 64)}
	if cfg.Traced {
		args = append(args, "-trace", "1", "-trace-out", spansPath)
	}
	cmd := exec.Command(o.Exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("benchkit: child %s %v: %w", o.Exe, args, err)
	}
	var res RepResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("benchkit: child %s %v printed no result: %w", o.Exe, args, err)
	}
	return &res, nil
}

// RunChild is the body of `ldbench -one`: one repetition and, when
// traced, the isolated-layer rows after it, merged into one result.
func RunChild(cfg RepConfig, spansPath string) (*RepResult, error) {
	var spans *os.File
	if cfg.Traced && spansPath != "" {
		var err error
		if spans, err = os.Create(spansPath); err != nil {
			return nil, err
		}
		cfg.Spans = spans
	}
	res, err := RunRepetition(cfg)
	if spans != nil {
		if cerr := spans.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil || !cfg.Traced {
		return res, err
	}
	rows, err := RunLedger(cfg)
	if err != nil {
		return nil, err
	}
	for k, v := range rows {
		res.Metrics[k] = v
	}
	return res, nil
}
