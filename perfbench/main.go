// Command perfbench is the repository benchmark. It runs one workload
// through the program's public Go entry points, checks the outputs, and
// prints the workload's metrics, ending with one JSON result line:
//
//	go build -o .bench_build/perfbench ./perfbench
//	.bench_build/perfbench --workload serve_read --seed 1 --seconds 25 --trace 0
//
// (perfbench/run.sh does both steps.) Workloads:
//
//   - serve_read: a live server over a 100k-paper corpus, reads only; an
//     open-loop read stream at a fixed rate, then nproc closed-loop
//     clients.
//   - serve_write: the same server with push epochs on, an open-loop
//     writer of citations and new papers, and beside it a lower-rate
//     read stream, then one closed-loop reader.
//   - eval_sweep: the paper's Table-3 AttRank grid on a temporal split,
//     in process.
//
// The seed makes the inputs: the dblp synthetic profile is generated in
// a child process and written to a TSV file before anything is timed,
// and the program only gets that file. With --trace 0 the gated
// end-to-end metrics, which every workload measures, go in the result
// line and the latencies are printed as ungated (layers.go says why);
// with --trace 1 the workload runs twice (untraced in a child process,
// then traced) and every per-layer metric is reported, from the traced
// run's spans or, for layers the workload does not run, from probes
// after it (probe.go), plus the traced-minus-untraced difference on each
// end-to-end metric. The metric-to-layer map is in layers.go; README.md
// describes the workloads, metrics and gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// DefaultSeed is the seed the committed numbers use; HeldOutSeed is kept
// for checking a claimed gain on inputs nobody tuned against.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// options are the knobs of one run: the four flags plus the run's scale.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch space inside the checkout
	scale
}

// scale is the size of a run. Every run of the benchmark uses fullScale;
// the smoke test sets PERFBENCH_SCALE=smoke, which the child processes
// inherit, to run each workload on a tiny corpus in a few seconds.
type scale struct {
	papers int // corpus size
	// readRate is serve_read's open-loop read rate (req/s); serve_write's
	// open-loop reads beside its writer run at half of it.
	readRate float64
	// writeRate is serve_write's open-loop write rate (writes/s).
	writeRate float64
	// setupReps is how many times set-up runs; all but the last run in
	// child processes so the measured process holds one corpus only.
	setupReps int
}

var (
	fullScale  = scale{papers: 100000, readRate: fullReadRate, writeRate: fullWriteRate, setupReps: 5}
	smokeScale = scale{papers: 3000, readRate: 1500, writeRate: 120, setupReps: 2}
)

func scaleFromEnv() scale {
	if os.Getenv("PERFBENCH_SCALE") == "smoke" {
		return smokeScale
	}
	return fullScale
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value (not part of the result
	// line; printed in the report).
	n int
}

// outcome is what a workload run returns.
type outcome struct {
	correct   bool
	gateNotes []string
	attempted int
	failed    int
	e2e       map[string]metric // gated end-to-end metrics
	ungated   map[string]metric // the other end-to-end metrics
	layers    map[string]metric // per-layer metrics (traced runs only)
	tally     *tally            // per-operation accounting
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		o     options
		trace int
		child string
		input string
	)
	flag.StringVar(&o.workload, "workload", "", "serve_read, serve_write or eval_sweep")
	flag.Int64Var(&o.seed, "seed", DefaultSeed, fmt.Sprintf("input seed (default %d; %d is kept for held-out checks)", DefaultSeed, HeldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&child, "child", "", "internal: run a child step (gen, setup or run)")
	flag.StringVar(&input, "input", "", "internal: input file of a child step")
	flag.Parse()
	o.trace = trace == 1
	o.scale = scaleFromEnv()
	o.workDir = filepath.Join(".bench_build", "work")

	if child != "" {
		if err := runChild(child, o, input); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if o.workload == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	shown := out.e2e
	if o.trace {
		shown = out.layers
	}
	report(o, out, shown)
	metrics, err := resultMetrics(o, shown)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run generates the input and runs the workload once. A traced run first
// runs the workload untraced in a child process, so that each half has
// its own peak RSS, and then traced in this one.
func run(o options) (*outcome, error) {
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	dir := filepath.Join(o.workDir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	input := filepath.Join(dir, "corpus.tsv")
	if _, err := childOutput("gen", o, input); err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	fmt.Printf("perfbench: %s, seed %d, %d papers, %.0fs, GOMAXPROCS=%d\n",
		o.workload, o.seed, o.papers, o.seconds, runtime.GOMAXPROCS(0))
	if !o.trace {
		return runWorkload(o, input, dir, nil)
	}
	base, err := untracedChild(o, input)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runWorkload(o, input, dir, tr)
	if err != nil {
		return nil, err
	}
	for name, m := range merge(base.e2e, base.ungated) {
		if t, ok := merge(traced.e2e, traced.ungated)[name]; ok {
			d := t.Value - m.Value
			if e2eBetter(name) == "higher" {
				d = -d
			}
			traced.layers["trace_overhead."+name] = metric{Value: d, Unit: m.Unit, n: t.n}
		}
	}
	traced.correct = traced.correct && base.correct
	traced.gateNotes = append(base.gateNotes, traced.gateNotes...)
	traced.attempted += base.attempted
	traced.failed += base.failed
	spans := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: %d spans written to %s\n", tr.len(), spans)
	return traced, nil
}

// resultMetrics picks the result line's metrics from a run's: every gated
// end-to-end metric, or with --trace 1 every per-layer metric. A run that
// lacks one prints no result line.
func resultMetrics(o options, have map[string]metric) (map[string]metric, error) {
	var names []string
	if o.trace {
		for _, l := range layerTable {
			names = append(names, l.name)
		}
	} else {
		for _, m := range e2eTable {
			if m.gated {
				names = append(names, m.name)
			}
		}
	}
	out := map[string]metric{}
	for _, name := range names {
		m, ok := have[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s not measured", o.workload, name)
		}
		out[name] = m
	}
	return out, nil
}

func merge(a, b map[string]metric) map[string]metric {
	out := maps.Clone(a)
	maps.Copy(out, b)
	return out
}

// workloadFunc runs one workload on the input file. tr is nil in an
// untraced run.
type workloadFunc func(o options, input, dir string, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"serve_read":  serveRead,
	"serve_write": serveWrite,
	"eval_sweep":  evalSweep,
}

// runWorkload runs the workload, keeps its gated end-to-end metrics in
// e2e and prints the others as ungated.
func runWorkload(o options, input, dir string, tr *tracer) (*outcome, error) {
	out, err := workloads[o.workload](o, input, dir, tr)
	if err != nil {
		return nil, err
	}
	out.e2e, out.ungated = gated(out.e2e)
	names := make([]string, 0, len(out.ungated))
	for name := range out.ungated {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.ungated[name]
		fmt.Printf("ungated    %-36s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	return out, nil
}

// report prints the human-readable summary: every metric with its unit
// and sample count, the per-operation accounting and the gates.
func report(o options, out *outcome, metrics map[string]metric) {
	if out.tally != nil {
		out.tally.print(os.Stdout)
	}
	for _, n := range out.gateNotes {
		fmt.Println("gate:", n)
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer"
	}
	moves := map[string]string{}
	for _, l := range layerTable {
		moves[l.name] = l.moves
	}
	for _, name := range names {
		m := metrics[name]
		fmt.Printf("%-10s %-36s %14.4f %-8s n=%-6d %s\n", kind, name, m.Value, m.Unit, m.n, moves[name])
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", out.correct, out.attempted, out.failed)
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// gate collects correctness checks; any failure marks the run incorrect.
type gate struct {
	ok    bool
	notes []string
}

func newGate() *gate { return &gate{ok: true} }

func (g *gate) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !ok {
		g.ok = false
		msg = "FAIL " + msg
	} else {
		msg = "ok   " + msg
	}
	g.notes = append(g.notes, msg)
}
