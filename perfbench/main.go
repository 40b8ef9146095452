// Command perfbench is the repository's benchmark.  It runs one named
// workload through the scheduler's public Go APIs for a fixed time,
// checks every output for correctness, and prints the metrics named in
// BENCHMARK.json at the repository root.  The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off.  With --trace 1 they are the per-layer metrics: the run
// alternates untraced and traced measurement, records a span around
// every public call the benchmark makes, and reports each layer's self
// time plus the tracing overhead.  Lines before the JSON object give
// the host, the provenance and the human-readable report; the same
// report and, in traced runs, the spans are written under .bench_out/.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload pack-10k --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// heldOutSeed is a workload seed reserved for checking later
// performance claims: it must not be used while a change is written,
// so a gain that holds on it was not fitted to the tuning seeds.
const heldOutSeed = 20261017

// defaultTraceSeed is the trace every workload schedules: the seed-42
// Alibaba-shaped trace the repository's experiments use.
const defaultTraceSeed = 42

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "client seed: the relabelling (pack-*) or the request order and failure picks (serve-churn)")
	traceSeed := fs.Int64("trace-seed", defaultTraceSeed, "seed of the synthetic trace every workload schedules")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_out", "directory for the report and spans files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		Seed:      *seed,
		TraceSeed: *traceSeed,
		Duration:  time.Duration(*seconds * float64(time.Second)),
		Traced:    *traced == 1,
	}
	steal0, total0, ok0 := cpuTicks()
	rep, err := execute(sp, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.Name, err)
		return 1
	}
	rep.Host = hostInfo()
	// The share of the machine's CPU time the hypervisor gave to other
	// guests while the run measured: a run slowed by a busy host shows
	// it here.
	if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 && total1 > total0 {
		rep.Host["cpu_steal_frac"] = strconv.FormatFloat(float64(steal1-steal0)/float64(total1-total0), 'f', 4, 64)
	}
	rep.Provenance = provenance(cfg, sp)
	rep.print(stdout)
	if err := rep.save(*outDir, sp, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Result.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed: %s\n", sp.Name, rep.GateError)
		return 1
	}
	return 0
}

// runConfig is what one invocation measures.
type runConfig struct {
	Seed      int64
	TraceSeed int64
	Duration  time.Duration
	Traced    bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run produced.
type report struct {
	Result     result            `json:"result"`
	GateError  string            `json:"gate_error,omitempty"`
	Notes      map[string]string `json:"notes"`
	Host       map[string]string `json:"host"`
	Provenance map[string]string `json:"provenance"`
	// Samples are the raw per-pass (pack) or per-setup (serve) values
	// behind the medians.
	Samples map[string][]float64 `json:"samples,omitempty"`
	spans   []span
}

// execute runs one workload and assembles its report.  A failed gate
// yields a report with Correct false and no metrics; an error is a
// failure to run at all.
func execute(sp spec, cfg runConfig) (*report, error) {
	var (
		ms    measurement
		err   error
		notes = map[string]string{}
	)
	switch sp.Kind {
	case kindPack:
		ms, err = runPack(sp, cfg, notes)
	case kindServe:
		ms, err = runServe(sp, cfg, notes)
	}
	if err != nil {
		return nil, err
	}
	rep := &report{Notes: notes, Samples: ms.samples, spans: ms.spans}
	rep.Result = result{Attempted: ms.attempted, Failed: ms.failed, Metrics: map[string]metric{}}
	if ms.gateErr != nil {
		rep.GateError = ms.gateErr.Error()
		return rep, nil
	}
	rep.Result.Correct = true
	want := endToEnd
	if cfg.Traced {
		want = perLayer
	}
	for _, d := range want {
		v, ok := ms.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Result.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return rep, nil
}

// measurement is what a workload runner hands back: every metric it
// measured (the caller picks the end-to-end or per-layer set), the
// operation counts, and the first failed gate.
type measurement struct {
	values    map[string]float64
	attempted int
	failed    int
	gateErr   error
	samples   map[string][]float64
	spans     []span
}

// print writes the human-readable report: host, provenance, notes and
// every metric with its unit, one per line, sorted by key.
func (r *report) print(w io.Writer) {
	for _, sec := range []struct {
		title string
		kv    map[string]string
	}{{"host", r.Host}, {"provenance", r.Provenance}, {"note", r.Notes}} {
		for _, k := range sortedKeys(sec.kv) {
			fmt.Fprintf(w, "%s %s: %s\n", sec.title, k, sec.kv[k])
		}
	}
	for _, k := range sortedKeys(r.Result.Metrics) {
		m := r.Result.Metrics[k]
		fmt.Fprintf(w, "metric %s: %.6g %s\n", k, m.Value, m.Unit)
	}
	if r.GateError != "" {
		fmt.Fprintf(w, "gate failed: %s\n", r.GateError)
	}
}

// save writes the report, and in traced runs the spans as JSON Lines,
// under dir.
func (r *report) save(dir string, sp spec, cfg runConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", sp.Name, cfg.Seed, boolInt(cfg.Traced)))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !cfg.Traced {
		return nil
	}
	return writeSpans(base+".spans.jsonl", r.spans)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
