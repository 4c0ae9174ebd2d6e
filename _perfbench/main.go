// Command perfbench is the repository benchmark. It runs one named
// workload against the solver stack and prints, as the last line of its
// standard output, one JSON object with the correctness verdict and the
// metrics:
//
//	perfbench --workload sweep-chain100 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (always measured
// untraced); with --trace 1 the run replays every operation layer by layer
// through the packages' public entry points and reports the per-layer
// breakdown. The line before the result records the environment and the
// sample count behind every percentile. The exit code is 1 when any output
// fails its check or the run is invalid; operations that fail without a
// wrong output (a refused request, an instance the program cannot solve
// in-process either) count in failed and ok_frac.
//
// The end-to-end metrics carry the same name on every workload; what each
// measures per workload is listed at e2eMetrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run prints.
//
//	metric            sweep-chain100          joint-dag300           serve-mix
//	setup_s           instance + warm-up      instance set + warm-up server start to /readyz + warm-up
//	ok_frac           1 − failed/attempted on every workload
//	mem.peak_mb       peak RSS of the benchmark process; of the bbserve process on serve-mix
//	throughput_per_s  sweep points per second cold solves per second requests served per second of server worker time, nominal rate
//	latency_mean_ms   mean point time         mean solve time        mean latency of the requests served at the nominal rate
//	latency_tail_ms   highest percentile with ≥ 10 samples beyond (p95 at the nominal rate on serve-mix)
//	good_frac         share of operations that succeeded within the workload's latency limit
//
// The central latency is a mean, not a median, because one name must hold
// on every workload and serve-mix's median is unsteady: its mix puts the
// median in the gap between the light hot solves and the heavy requests,
// where the latency distribution is thin. The median (latency_p50_ms) is
// reported by the traced run.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "ratio"},
	{"mem.peak_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_mean_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"good_frac", "ratio"},
}

// layerMetrics are the per-layer metrics every traced run prints; a layer
// a workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.build_alloc_mb", "MB"},
	{"core.g_dense", "bool"},
	{"socp.solve_ms", "ms"},
	{"socp.iters", "count"},
	{"socp.hot_exits", "count"},
	{"socp.alloc_mb", "MB"},
	{"socp.cache_hits", "count"},
	{"socp.cache_misses", "count"},
	{"socp.cache_hit_ratio", "ratio"},
	{"socp.other_ms", "ms"},
	{"linalg.plan_ms", "ms"},
	{"linalg.assemble_ms", "ms"},
	{"linalg.analyze_ms", "ms"},
	{"linalg.factor_ms", "ms"},
	{"linalg.trisolve_ms", "ms"},
	{"linalg.kkt_dim", "count"},
	{"linalg.nnz_l", "count"},
	{"linalg.supernodes", "count"},
	{"dfmodel.verify_ms", "ms"},
	{"taskgraph.parse_ms", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p95", "ms"},
	{"serve.worker_ms_p50.hot", "ms"},
	{"serve.worker_ms_p95.hot", "ms"},
	{"serve.worker_ms_p50.new", "ms"},
	{"serve.worker_ms_p95.new", "ms"},
	{"serve.worker_ms_p50.sweep", "ms"},
	{"serve.worker_ms_p95.sweep", "ms"},
	{"serve.shed_frac", "ratio"},
	{"serve.deadline_frac", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.patterns", "count"},
	{"serve.gen_lag_ms", "ms"},
	{"serve.max_rps", "1/s"},
	{"go.gc_cycles", "count"},
	{"go.alloc_mb", "MB"},
	{"share.core_build", "ratio"},
	{"share.socp_solve", "ratio"},
	{"share.linalg_est", "ratio"},
	{"share.dfmodel_verify", "ratio"},
	{"share.taskgraph_parse", "ratio"},
	{"share.unattributed", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"fail_frac", "ratio"},
}

// report accumulates one run's metrics, checks, and header notes.
type report struct {
	metrics   map[string]float64
	samples   map[string]int // sample count behind each percentile metric
	notes     map[string]any
	attempted int
	failed    int
	// mismatches counts outputs that failed their check; failed also
	// counts operations the program refused or could not finish.
	mismatches int
	problems   []string // the first failures, for the log
	invalid    []string // reasons the run's measurements cannot be trusted
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, samples: map[string]int{}, notes: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// check counts one attempted operation whose output was checked; a failed
// check is a wrong output.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.mismatches++
		r.problem("check failed: "+format, args...)
	}
}

// fail counts one attempted operation that failed without a wrong output:
// refused, timed out, or an error the program also returns in-process.
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.problem("operation failed: "+format, args...)
}

// problem records a failed check without counting a new operation.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named benchmark workload.
type workload struct {
	why string
	run func(a args, r *report) error
}

var workloads = map[string]workload{
	"sweep-chain100": {"warm-started 60-point chain-100 trade-off sweep", runSweep},
	"joint-dag300":   {"cold joint solves of 300-task random DAGs", runDAG},
	"serve-mix":      {"open-loop HTTP traffic into the solver daemon", runServe},
}

// args are the parsed command-line settings of a run.
type args struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span dumps
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var a args
	var trace int
	fs.StringVar(&a.workload, "workload", "", "workload name")
	fs.Int64Var(&a.seed, "seed", 1, "workload seed")
	fs.Float64Var(&a.seconds, "seconds", 20, "measuring time")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown")
	fs.StringVar(&a.out, "out", ".", "build directory: holds bbserve, its log, and the span dumps of traced runs")
	writeRef := fs.String("write-reference", "", "recompute the reference objectives into this file and exit")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[a.workload]
	if !ok || (trace != 0 && trace != 1) || a.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --trace 0|1, --seconds > 0\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	a.trace = trace == 1
	r := newReport()
	hostBefore := sampleHost()
	if err := wl.run(a, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r.notes["host"] = hostBefore.until(sampleHost())
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "perfbench:", p)
	}
	for _, p := range r.invalid {
		fmt.Fprintln(stderr, "perfbench: invalid run:", p)
	}
	defs := e2eMetrics
	if a.trace {
		r.set("fail_frac", ratio(float64(r.failed), float64(r.attempted)))
		defs = layerMetrics
	} else {
		r.set("ok_frac", 1-ratio(float64(r.failed), float64(r.attempted)))
		if _, ok := r.metrics["mem.peak_mb"]; !ok {
			mb, err := vmHWM("/proc/self/status")
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			r.set("mem.peak_mb", mb)
		}
	}
	header := map[string]any{
		"workload": a.workload, "why": wl.why, "seed": a.seed, "seconds": a.seconds,
		"trace": trace, "env": environment(), "samples": r.samples, "notes": r.notes,
		"invalid": r.invalid,
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s not measured\n", d.name)
			return 1
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	correct := r.mismatches == 0 && len(r.invalid) == 0 && r.attempted > 0
	out := map[string]any{"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(header); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment describes the machine a run measured.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"llc":        lastLevelCache(),
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// lastLevelCache reports the size of CPU 0's highest-level cache.
func lastLevelCache() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, size := -1, "unknown"
	for _, d := range dirs {
		lvl, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if l, err := strconv.Atoi(strings.TrimSpace(string(lvl))); err == nil && l > best {
			best, size = l, fmt.Sprintf("L%d %s", l, strings.TrimSpace(string(sz)))
		}
	}
	return size
}

// vmHWM reads the peak resident set (VmHWM) in MB from a /proc status
// file.
func vmHWM(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, fmt.Errorf("reading peak memory: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in %s", statusPath)
}
