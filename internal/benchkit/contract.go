package benchkit

import (
	"fmt"
	"io"
	"math"
)

// ContractValue is one metric of the machine-readable result line.
type ContractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Contract is the one-line result BENCHMARK.json's command prints last:
// whether every output check held, operations attempted and failed, and
// the metrics — every end-to-end metric BENCHMARK.json lists when
// untraced, every per-layer one when traced.
type Contract struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]ContractValue `json:"metrics"`
}

// ContractMetrics are the lists BENCHMARK.json declares. Its command must
// print every end-to-end metric on every workload, so the two timing
// metrics, which only the paced workload has a schedule for, sit with the
// per-layer ones there; ldbench's own report and -aa still bound them on
// broot-udp-paced.
func ContractMetrics() (endToEnd, perLayer []MetricDef) {
	closed := Workload{}
	return EndToEndFor(closed), PerLayerFor(closed)
}

// ContractResult folds one workload's report into the result line.
func ContractResult(w *WorkloadReport, traced bool) Contract {
	c := Contract{Correct: len(w.Violations) == 0, Attempted: w.Ops, Failed: w.FailedOps, Metrics: map[string]ContractValue{}}
	defs, perLayer := ContractMetrics()
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := w.Metric(d.Name)
		if !ok || math.IsNaN(m.Median) {
			c.Correct = false
			continue
		}
		c.Metrics[d.Name] = ContractValue{Value: m.Median, Unit: d.Unit}
	}
	return c
}

// CompareAA prints, per workload and end-to-end metric, both sets'
// medians, their relative difference and the bound, and reports whether
// every difference stayed inside its bound. Two sets of the same code
// that disagree by more than a bound mean the bound cannot be resolved
// on this box: the metric is unresolved, not regressed.
func CompareAA(out io.Writer, a, b *Report) bool {
	ok := true
	fmt.Fprintln(out, "\nA/A: two sets of the same code")
	for i := range a.Workloads {
		wa, wb := &a.Workloads[i], &b.Workloads[i]
		for _, ma := range wa.EndToEnd {
			mb, _ := wb.Metric(ma.Name)
			diff := math.Abs(mb.Median-ma.Median) / math.Abs(ma.Median)
			verdict := "ok"
			if diff > ma.Bound || math.IsNaN(diff) {
				verdict, ok = "unresolved", false
			}
			fmt.Fprintf(out, "  %-18s %-18s %-6s A %-12.6g B %-12.6g diff %.4f bound %g %s\n",
				wa.Name, ma.Name, ma.Unit, ma.Median, mb.Median, diff, ma.Bound, verdict)
		}
	}
	return ok
}
