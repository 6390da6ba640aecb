// Command ldbench is the repository's one benchmark: closed-loop goodput
// through the shipped pipeline — LDTRC02 block file → mmap block reader →
// replay engine (ldplayer replay's defaults) → kernel loopback →
// meta-DNS-server (metadns's defaults) over a synthesized root+TLD+SLD
// hierarchy → back to the client's pending table — on four named
// workloads, with a per-layer cost ledger beneath it. See
// internal/benchkit/README.md for what every metric means.
//
//	ldbench                     every workload, 5 repetitions each, ~6 s measured per repetition
//	ldbench -trace 1            the same plus a traced repetition and the ledger
//	ldbench -aa                 two sets back to back, compared against the bounds
//	ldbench -workload W -seed N -seconds S -trace 0|1
//	                            one workload sized to S measured seconds; the
//	                            last line of stdout is one JSON result object
//
// Every repetition runs in a fresh child process (ldbench -one).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"ldplayer/internal/benchkit"
)

const (
	// repSeconds is what a repetition measures at scale 1 on the box the
	// workloads were sized on.
	repSeconds = 6.0
	// sizedReps is how many repetitions -seconds is split over. Five, so
	// the median shrugs off the two slow repetitions a shared box throws
	// in; BENCHMARK.json's run_seconds keeps each at three seconds.
	sizedReps = 5
	// setupReps is how many times the inputs are generated to put a median
	// on set-up time.
	setupReps = 3
)

func main() {
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	workload := flag.String("workload", "", "run only this workload (default: all)")
	reps := flag.Int("reps", 0, "untraced repetitions per workload (default 5)")
	scale := flag.Float64("scale", 1, "multiply every workload's entry count")
	seconds := flag.Float64("seconds", 0, "size the run to about this many measured seconds per workload (sets -scale)")
	out := flag.String("out", "", "write the full JSON report here")
	traceOn := flag.Int("trace", 0, "1 adds a traced repetition and the per-layer ledger")
	traceOut := flag.String("trace-out", "", "with -trace 1, write spans as JSON lines to <this>.<workload>.jsonl")
	aa := flag.Bool("aa", false, "run two sets back to back and compare them against the bounds")
	workDir := flag.String("workdir", ".bench_build/inputs", "where the generated block files live during the run")
	one := flag.String("one", "", "internal: run one repetition of this workload on -in and print its result")
	in := flag.String("in", "", "internal: the block file for -one")
	flag.Parse()

	if *one != "" {
		child(*one, *in, *seed, *scale, *traceOn == 1, *traceOut)
		return
	}

	o := benchkit.Options{
		Seed: *seed, Workloads: benchkit.Workloads, Reps: *reps, Scale: *scale, SetupReps: setupReps,
		Trace: *traceOn == 1, TraceOut: *traceOut, WorkDir: *workDir, Log: os.Stderr,
	}
	if *workload != "" {
		w, ok := benchkit.WorkloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		o.Workloads = []benchkit.Workload{w}
	}
	switch {
	case *seconds > 0:
		if o.Reps == 0 {
			o.Reps = sizedReps
		}
		o.Scale = *seconds / (float64(o.Reps) * repSeconds)
		if o.Trace {
			// The ledger run keeps the repetition length and spends its time
			// on the traced repetition and the isolated rows instead.
			o.Reps, o.SetupReps = 1, 1
		}
	case o.Reps == 0:
		o.Reps = 5
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	o.Exe = exe

	first, err := benchkit.Run(o)
	if err != nil {
		fatal(err)
	}
	printReport(first)
	ok := !first.Failed()
	if *aa {
		second, err := benchkit.Run(o)
		if err != nil {
			fatal(err)
		}
		printReport(second)
		ok = ok && !second.Failed() && benchkit.CompareAA(os.Stdout, first, second)
	}
	if *out != "" {
		b, err := json.MarshalIndent(first, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if len(first.Workloads) == 1 {
		// The machine-readable last line.
		b, err := json.Marshal(benchkit.ContractResult(&first.Workloads[0], o.Trace))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
	if !ok {
		os.Exit(1)
	}
}

// child runs one repetition in this (fresh) process and prints its result
// as one JSON line.
func child(name, in string, seed int64, scale float64, traced bool, spans string) {
	w, ok := benchkit.WorkloadByName(name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	res, err := benchkit.RunChild(benchkit.RepConfig{Workload: w, Seed: seed, Scale: scale, TracePath: in, Traced: traced}, spans)
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fatal(err)
	}
}

// printReport prints every metric by name with its unit, median, spread
// and per-repetition values.
func printReport(r *benchkit.Report) {
	fmt.Printf("ldbench seed %d scale %.4g reps %d gate W=%d | %d CPUs GOMAXPROCS %d %s linux %s\n%s\n",
		r.Seed, r.Scale, r.Reps, r.Window, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Go, r.Env.Kernel, r.Env.Network)
	for i := range r.Workloads {
		w := &r.Workloads[i]
		fmt.Printf("\n== %s: %d entries, first %d warm-up; ops %d failed_ops %d\n   %s\n", w.Name, w.Entries, w.Warmup, w.Ops, w.FailedOps, w.Why)
		fmt.Println("end-to-end (median over repetitions; bound = share of the baseline median it may worsen by)")
		for _, m := range w.EndToEnd {
			printMetric(m)
		}
		if len(w.PerLayer) > 0 {
			fmt.Println("per-layer ledger (rows every repetition produces: median of the untraced ones; the rest: one traced repetition and the isolated-layer rows)")
			for _, m := range w.PerLayer {
				printMetric(m)
			}
		}
		sort.Strings(w.Violations)
		for _, v := range w.Violations {
			fmt.Println("VIOLATION:", v)
		}
	}
}

func printMetric(m benchkit.MetricReport) {
	fmt.Printf("  %-38s %-6s %-6s median %-12.6g mad %-10.4g min %-12.6g max %-12.6g n %d", m.Name, m.Unit, m.Better, m.Median, m.MAD, m.Min, m.Max, m.N)
	if m.Bound > 0 {
		fmt.Printf(" bound %g", m.Bound)
	}
	if m.N > 1 {
		fmt.Printf(" values %.6g", m.Values)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldbench:", err)
	os.Exit(2)
}
