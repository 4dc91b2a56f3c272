// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed number of seconds from a workload seed, checks every
// output it timed against the same public function called in-process, and
// prints one JSON line of metrics as the last line of standard output:
//
//	perfbench -workload serve-cold -seed 3 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the run first repeats the untraced load, then records
// spans around the calls the benchmark makes into each layer and reports the
// per-layer metrics. See README.md for the workloads, the metric
// definitions and the layer-to-end-to-end predictions; perfbench/run.sh
// builds the binaries and supplies -root, -rvserved and -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics every untraced run reports, on every
// workload. An "operation" is an HTTP request on the serve workloads and one
// sweep job on the in-process ones; a "pass" is one round over the
// workload's fixed operation list (see README.md). The _rel metrics are
// the workload's timings over those of the reference operations run
// alongside (ref.go).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"qps_rel", "ratio"},
	{"p50_rel", "ratio"},
	{"p99_rel", "ratio"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// experimentTimes, experimentAllocs name the experiments whose single-run
// wall time and allocation the traced suite-cold run reports.
var (
	experimentTimes  = []string{"E10", "E14", "E16", "E8", "E11", "E5", "E12", "E9"}
	experimentAllocs = []string{"E10", "E14", "E16", "E8", "E11"}
)

// layerMetrics are the per-layer metrics every traced run reports. A layer
// the workload does not reach reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"rvserved.self_ms.p50", "ms"},
		{"rvserved.self_ms.p99", "ms"},
		{"cache.hit_ratio", "ratio"},
		{"cache.dedups", "count"},
		{"cache.hit_us.p50", "us"},
		{"cache.miss_self_us.p50", "us"},
		{"cache.save_ms", "ms"},
		{"cache.open_s", "s"},
		{"cache.records", "count"},
		{"sim.walk_us.p50", "us"},
		{"sim.walk_us.p99", "us"},
		{"sim.intervals.mean", "count"},
		{"sim.self_us.p50", "us"},
		{"sim.horizon_cut", "count"},
		{"trajectory.gen_us.p50", "us"},
		{"trajectory.segments.mean", "count"},
		{"batch.lanes_per_row", "count"},
		{"batch.speedup", "ratio"},
		{"sweep.util", "ratio"},
		{"sweep.util.E14", "ratio"},
		{"sweep.util.E16", "ratio"},
		{"sweep.job_ms.max", "ms"},
	}
	for _, id := range experimentTimes {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	for _, id := range experimentAllocs {
		defs = append(defs, metricDef{"experiments." + id + "_alloc_mb", "MB"})
	}
	return append(defs,
		metricDef{"experiments.E10_mallocs", "count"},
		metricDef{"runtime.alloc_kb_per_req", "KB"},
		metricDef{"runtime.gc_count", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.residual_ratio", "ratio"},
		metricDef{"trace.spans", "count"},
	)
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"serve-hot":    serveHot,
	"serve-cold":   serveCold,
	"suite-cold":   suiteCold,
	"grid-sampled": gridSampled,
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout holding the sources and goldens
	rvserved string // daemon binary for the serve workloads
	out      string // directory for run files and span dumps
}

// run is the state one workload fills in: its metrics, its operation
// counts, the reasons it is invalid, and (when traced) its spans.
type run struct {
	opt       options
	epoch     time.Time // origin of every span and sample offset
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string
	notes     []string
	tr        *tracer // nil on an untraced run
}

// invalid records why the run's outputs cannot be trusted; any entry makes
// the run incorrect.
func (r *run) invalid(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note records a line for the human-readable report on standard error.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// half is the length of one load phase: the whole window on an untraced
// run, half of it for each of the untraced and traced phases otherwise.
func (r *run) half() time.Duration {
	if r.tr != nil {
		return r.opt.seconds / 2
	}
	return r.opt.seconds
}

func main() {
	var opt options
	var trace int
	var seconds float64
	flag.StringVar(&opt.workload, "workload", "", "workload: serve-hot, serve-cold, suite-cold or grid-sampled")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&opt.root, "root", ".", "repository checkout")
	flag.StringVar(&opt.rvserved, "rvserved", "", "rvserved binary (serve workloads)")
	flag.StringVar(&opt.out, "out", ".bench_build/perfbench", "directory for run files and span dumps")
	echo := flag.Bool("echo", false, "serve the reference server of the serve workloads instead of running one")
	echoWork := flag.Int("echo-work", 0, "refWork rounds the reference server computes per request")
	flag.Parse()
	if *echo {
		if err := serveEcho(*echoWork); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench -echo:", err)
			os.Exit(1)
		}
		return
	}
	opt.seconds = time.Duration(seconds * float64(time.Second))
	opt.trace = trace == 1
	if err := mainErr(opt, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(opt options, trace int) error {
	fn, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if opt.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	r := &run{opt: opt, epoch: time.Now(), e2e: map[string]float64{}, layer: map[string]float64{}}
	if opt.trace {
		r.tr = &tracer{}
	}
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", opt.workload, err)
	}
	if r.tr != nil {
		r.layer["trace.spans"] = float64(len(r.tr.spans))
		path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		r.note("spans: %d written to %s", len(r.tr.spans), path)
	}
	res, err := r.result()
	if err != nil {
		return err
	}
	r.report(os.Stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the output line: the end-to-end metrics on an untraced
// run, the per-layer ones on a traced run. A missing end-to-end metric is a
// bug in the workload; a per-layer metric the workload does not reach is 0.
func (r *run) result() (result, error) {
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if r.opt.trace {
		for _, d := range layerMetrics {
			res.Metrics[d.name] = metricValue{r.layer[d.name], d.unit}
		}
		return res, nil
	}
	r.e2e["ok_ratio"] = 1 - float64(r.failed)/float64(max(r.attempted, 1))
	for _, d := range e2eMetrics {
		v, ok := r.e2e[d.name]
		if !ok {
			return res, fmt.Errorf("workload %s did not measure %s", r.opt.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, nil
}

// report prints the human-readable summary of a run to w.
func (r *run) report(w io.Writer, res result) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", r.opt.workload, r.opt.seed, r.opt.seconds.Seconds(), r.opt.trace)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d (fail_ratio %.6g)\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, p := range r.problems {
		fmt.Fprintln(w, "  INVALID: "+p)
	}
}
