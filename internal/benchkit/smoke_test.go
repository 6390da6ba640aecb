package benchkit

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// smokeScale runs every workload at 1/50 of its length, in-process.
const smokeScale = 0.02

// benchmarkJSON is the root BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// BENCHMARK.json is written by hand; the tables in metrics.go and
// workload.go are what the command prints. They must say the same thing.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	endToEnd, perLayer := ContractMetrics()
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the table:\n json  %+v\n table %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the table:\n json  %+v\n table %+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, table %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	name, unit := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`), regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]MetricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != higher && d.Better != lower) {
			t.Errorf("metric %+v breaks the naming contract", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 2 {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// Every workload end to end at smoke scale: the real block reader, replay
// engine, loopback and server, a traced repetition and every ledger row.
// It catches API drift in sut.go and checks what the command checks.
func TestSmokeEveryWorkload(t *testing.T) {
	rep, err := Run(Options{
		Seed: 1, Workloads: Workloads, Reps: 1, Scale: smokeScale, SetupReps: 2,
		Trace: true, WorkDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := loadBenchmarkJSON(t)
	for i := range rep.Workloads {
		w := &rep.Workloads[i]
		for _, v := range w.Violations {
			t.Errorf("%s: %s", w.Name, v)
		}
		value := func(name string) float64 {
			m, ok := w.Metric(name)
			if !ok {
				t.Fatalf("%s: no metric %s", w.Name, name)
			}
			return m.Median
		}
		wl, _ := WorkloadByName(w.Name)
		if !wl.Paced {
			// Per-source sequential IDs: no response may be lost to a false
			// "duplicate" hit in the socket's answered ring.
			if d, f := value("replay.duplicates"), value("answered_frac"); d != 0 || f != 1 {
				t.Errorf("%s: %v duplicates, answered_frac %v; want 0 and 1", w.Name, d, f)
			}
			if w.FailedOps != 0 {
				t.Errorf("%s: %d of %d ops failed", w.Name, w.FailedOps, w.Ops)
			}
		}
		if r, wrong := value("bench.gate_reclaims"), value("bench.wrong_answers"); r != 0 || wrong != 0 {
			t.Errorf("%s: %v gate reclaims, %v wrong answers", w.Name, r, wrong)
		}
		if wl.Hot {
			if hit := value("authserver.cache_hit_frac"); hit < 0.9 { // > 0.95 at full length; the cold tenth weighs more here
				t.Errorf("%s: cache hit fraction %v; the workload exists to hit the cache", w.Name, hit)
			}
		} else if hit := value("authserver.cache_hit_frac"); hit > 0.3 {
			t.Errorf("%s: cache hit fraction %v; the workload exists to miss the cache", w.Name, hit)
		}
		want := 6 // the non-timing ones
		if wl.Paced {
			want = 8
		}
		if len(w.EndToEnd) != want {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(w.EndToEnd), want)
		}

		// The result line carries every metric BENCHMARK.json names, with
		// its unit, and nothing else.
		for traced, defs := range map[bool][]MetricDef{false: doc.EndToEnd, true: doc.PerLayer} {
			c := ContractResult(w, traced)
			if !c.Correct || c.Attempted < 1 || c.Failed != w.FailedOps {
				t.Errorf("%s traced=%v: correct %v attempted %d failed %d", w.Name, traced, c.Correct, c.Attempted, c.Failed)
			}
			if len(c.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, traced, len(c.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := c.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s missing or in %q, want %q", w.Name, traced, d.Name, v.Unit, d.Unit)
				}
			}
			if b, err := json.Marshal(c); err != nil || !json.Valid(b) {
				t.Errorf("%s: result line does not marshal: %v", w.Name, err)
			}
		}
	}
}
