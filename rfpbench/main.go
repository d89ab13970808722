// Command rfpbench is the repository's benchmark. It runs one named
// workload for a fixed time against the simulator's and the service's
// public entry points, checks their outputs, and prints its metrics, the
// last line of standard output being one JSON object:
//
//	bash rfpbench/run.sh -workload sim-compute -seed 1 -seconds 30 -trace 0
//
// run from the repository root (BENCHMARK.json declares the workloads and
// metrics). -trace 1 records spans and prints the per-layer metrics
// instead of the end-to-end ones. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rfpsim/internal/sweep"
)

// workload is one named benchmark workload: a simulation panel run job by
// job and a service grid pushed through the daemon. Every workload runs
// both, so every end-to-end metric is measured on each; the weights
// differ.
type workload struct {
	name string
	// panel lists the catalog workloads simulated under config.Baseline()
	// and .WithRFP(), each job warmup+measure uops long.
	panel           []string
	warmup, measure uint64
	// simShare is the share of the run spent on the panel; the service
	// grid gets the rest.
	simShare float64
	// grid lists the catalog workloads of the service grid; the first
	// also generates the uploaded trace.
	grid []string
}

var workloads = []workload{
	{
		name:  "sim-compute",
		panel: []string{"spec06_hmmer", "spec06_gcc"}, warmup: 50_000, measure: 300_000,
		simShare: 0.7,
		grid:     []string{"spec06_gcc", "spec06_hmmer"},
	},
	{
		name:  "sim-memory",
		panel: []string{"spec06_mcf", "spec06_wrf", "spark"}, warmup: 40_000, measure: 160_000,
		simShare: 0.6,
		grid:     []string{"spec06_mcf", "spec06_wrf", "spark"},
	},
	{
		name:  "service-mix",
		panel: []string{"spec06_gcc", "spark"}, warmup: 30_000, measure: 300_000,
		simShare: 0.25,
		grid:     []string{"spark", "spec06_hmmer", "spec06_gcc", "spec06_mcf", "spec06_wrf"},
	},
}

const (
	// minSimRounds passes over the panel are always made: the first is the
	// reference every later pass must reproduce.
	minSimRounds = 2
	// minReplay is the least host time a structure replay measures.
	minReplay = 20 * time.Millisecond
	// outDir, under the checkout the benchmark runs from, receives the
	// results, the spans and the daemons' scratch directories.
	outDir = ".bench_build/results"
)

var offTracer = newTracer(false)

// bench is the state of one benchmark run.
type bench struct {
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	nproc   int
	dir     string // scratch space for the daemons' disk tiers
	tr      *tracer
	tally   tally

	sweepMetrics *sweep.Metrics
	backendNs    atomic.Int64
	backendCalls atomic.Int64
	handlerNs    atomic.Int64

	setup   float64 // seconds: panel setup plus daemon start and restart
	metrics map[string]float64
	notes   []string
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

func (b *bench) setCalls(name string, c calls) {
	b.set(name, c.nsPerCall())
	b.note("%s: %d calls in %v", name, c.n, c.d)
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// tally counts the run's operations and the ones that failed a check.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// op is one attempted operation; it fails at its first failed check.
type op struct {
	t      *tally
	failed bool
}

func (t *tally) begin() *op {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	return &op{t: t}
}

func (o *op) check(ok bool, format string, args ...any) bool {
	if ok {
		return true
	}
	if !o.failed {
		o.failed = true
		o.t.mu.Lock()
		o.t.failed++
		if len(o.t.reasons) < 10 {
			o.t.reasons = append(o.t.reasons, fmt.Sprintf(format, args...))
		}
		o.t.mu.Unlock()
	}
	return false
}

// declared is the metric list of BENCHMARK.json, the one place metric
// names and units are written down.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta stamps a result with what it was measured on.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: sim-compute, sim-memory or service-mix")
	seed := flag.Uint64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 30, "seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "rfpbench: need -workload (one of sim-compute, sim-memory, service-mix), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfpbench:", err)
		return 1
	}
	dir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "rfpbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		w: *w, seed: *seed, seconds: *secs, traced: *traceFlag == 1,
		nproc: runtime.NumCPU(), dir: dir, tr: newTracer(*traceFlag == 1),
		sweepMetrics: &sweep.Metrics{}, metrics: map[string]float64{},
	}
	md := meta{
		Workload: w.name, Seed: *seed, Seconds: *secs, Trace: *traceFlag,
		CPU: cpuModel(), NProc: b.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	if err := b.measure(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "rfpbench:", err)
		return 1
	}
	if b.traced {
		for layer, d := range b.tr.selfTimes() {
			if layer != "bench" {
				b.set(layer+".self_s", d.Seconds())
			}
		}
	} else {
		b.set("setup_s", b.setup)
		b.set("peak_rss_mb", peakRSSMiB())
	}

	want := decl.EndToEnd
	if b.traced {
		want = decl.PerLayer
	}
	res := result{Attempted: b.tally.attempted, Failed: b.tally.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "rfpbench: BENCHMARK.json declares %s but the run did not measure it\n", m.Name)
			return 1
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(b.metrics, m.Name)
	}
	if len(b.metrics) > 0 {
		fmt.Fprintf(os.Stderr, "rfpbench: measured metrics BENCHMARK.json does not declare: %v\n", sortedKeys(b.metrics))
		return 1
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "rfpbench: no operation was attempted")
		return 1
	}

	report(os.Stdout, md, b, want, res)
	if err := save(outDir, md, b, res); err != nil {
		fmt.Fprintln(os.Stderr, "rfpbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfpbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure runs the workload: panel passes and service rounds alternate,
// each part getting its share of the run, so both are spread over all of
// it and a disturbance of a shared machine touches them alike. Each part
// makes at least its minimum number of rounds. A traced run then drives
// the structures and service layers alone.
func (b *bench) measure(ctx context.Context) error {
	jobs, err := b.newPanel(ctx)
	if err != nil {
		return err
	}
	g, err := b.newGrid()
	if err != nil {
		return err
	}
	defer g.transport.CloseIdleConnections()
	total := time.Duration(b.seconds * float64(time.Second))
	share := b.w.simShare
	var simTime, svcTime time.Duration
	simRounds := 0
	for {
		needSim, needSvc := simRounds < minSimRounds, len(g.rounds) < g.minRounds
		over := simTime+svcTime >= total
		if over && !needSim && !needSvc {
			break
		}
		t0 := time.Now()
		if (over && needSim) || (!over && simTime.Seconds()*(1-share) <= svcTime.Seconds()*share) {
			b.simRound(ctx, jobs, simRounds)
			simRounds++
			simTime += time.Since(t0)
			continue
		}
		if err := b.serviceRound(ctx, g); err != nil {
			return err
		}
		svcTime += time.Since(t0)
	}
	b.simReport(jobs, simRounds)
	b.serviceReport(g)
	if !b.traced {
		return nil
	}
	b.serviceLayers(ctx, g)
	return b.runReplays(ctx)
}

func readDeclared(path string) (*declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric declarations: %w", err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// report prints the human-readable summary: metadata, each metric with
// its unit, the run's notes and any failed checks.
func report(f *os.File, md meta, b *bench, want []declaredMetric, res result) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	mj, _ := json.Marshal(md)
	fmt.Fprintf(w, "meta %s\n", mj)
	for _, n := range b.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, m := range want {
		fmt.Fprintf(w, "%-12s %-32s %14.6g %s\n", md.Workload, m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(w, "%-12s %-32s %14.6g ratio (%d of %d operations)\n", md.Workload, "failed_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, r := range b.tally.reasons {
		fmt.Fprintf(w, "FAILED %s\n", r)
	}
}

// save writes the stamped result and, for a traced run, the spans.
func save(out string, md meta, b *bench, res result) error {
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d", md.Workload, md.Seed, md.Trace))
	raw, err := json.MarshalIndent(struct {
		Meta   meta     `json:"meta"`
		Result result   `json:"result"`
		Notes  []string `json:"notes"`
		Failed []string `json:"failed_checks,omitempty"`
	}{md, res, b.notes, b.tally.reasons}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", raw, 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	if b.traced {
		return b.tr.write(stem + ".spans.jsonl")
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMiB is the process's peak resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the source revision the Go toolchain stamped into the build,
// suffixed "-dirty" when the tree had uncommitted changes, or "unknown"
// when the benchmark was built outside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	if rev == "unknown" {
		return rev
	}
	return rev + dirty
}
