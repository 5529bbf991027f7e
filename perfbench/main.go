// Command perfbench is the repository benchmark: four workloads that
// reach the delay-bound pipeline the way its users do (the CLI batch
// path, the elmored service over HTTP, and what-if sizing on the
// incremental engine), each checked against independent oracles after
// its timed region. Run it through run.sh, which builds the harness and
// elmored from source first:
//
//	bash perfbench/run.sh --workload batch-corners --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print
// every metric by name with its unit, and the environment. --trace 1
// replaces the end-to-end metrics with the per-layer ones, measured by
// spans the harness puts around each call into a layer.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Metric units. The end-to-end set is reported by every workload with
// --trace 0, the per-layer set by every workload with --trace 1 (zero
// where a workload does not exercise the layer).
//
// The end-to-end times are user-mode CPU times of the process doing the
// work. The benchmark runs on shared virtual machines where the host
// steals 5-30% of the guest's CPU for minutes at a time, which moves
// every wall-clock figure by up to a factor of two between runs of the
// same code; the guest kernel leaves stolen time out of a process's CPU
// time (see cpuSeconds for why kernel time is left out as well). The
// wall-clock figures (jobs/s, nodes/s, request latency, max_rps,
// probes/s) are measured in the same runs and printed on the "#" lines,
// with the share of CPU the host stole.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"peak_rss_mb":    "MB",
	"ok_frac":        "ratio",
	"work_per_cpu_s": "1/s",
}

var layerUnits = map[string]string{
	"netlist.parse_s":                     "s",
	"netlist.parse_mb_per_s":              "MB/s",
	"rctree.compile_s":                    "s",
	"rctree.fingerprint_s":                "s",
	"rctree.fingerprint_calls":            "count",
	"moments.compute_s":                   "s",
	"moments.prh_s":                       "s",
	"core.bounds_s":                       "s",
	"core.for_input_s":                    "s",
	"batch.decode_s":                      "s",
	"batch.cache_lookups":                 "count",
	"batch.cache_hit_ratio":               "ratio",
	"batch.encode_s":                      "s",
	"batch.encode_bytes":                  "bytes",
	"batch.pool_efficiency":               "ratio",
	"batch.pool_idle_s":                   "s",
	"batch.reorder_stall_s":               "s",
	"batch.alloc_bytes_per_job":           "bytes/job",
	"batch.gc_cpu_frac":                   "ratio",
	"incremental.set_s":                   "s",
	"incremental.flush_s":                 "s",
	"incremental.scan_s":                  "s",
	"incremental.nodes_touched_per_flush": "count",
	"incremental.full_fallbacks":          "count",
	"incremental.revert_commit_s":         "s",
	"core.reanalyze_s":                    "s",
	"elmored.server_ms":                   "ms",
	"elmored.http_ms":                     "ms",
	"elmored.ttfb_ms":                     "ms",
	"elmored.hot_tree_hit_ratio":          "ratio",
	"elmored.hot_tree_evictions":          "count",
	"resilience.admitted":                 "count",
	"resilience.shed":                     "count",
	"gen.late_ms":                         "ms",
	"gen.backlog":                         "count",
	"trace.coverage":                      "ratio",
	"trace.overhead_frac":                 "ratio",
}

// run is the state one workload run shares with the harness.
type run struct {
	ctx     context.Context
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch directory, removed on exit
	bin     string // directory holding the built elmored
	traces  string // directory the span files are written to
	name    string

	attempted, failed int
	checkErr          error // first failed output check
	e2e, layer        map[string]float64
	notes             []string // human-readable lines printed before the JSON
}

// fail records a failed output check; the first one is reported.
func (r *run) fail(err error) {
	if err != nil && r.checkErr == nil {
		r.checkErr = err
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// deadline is when the measuring window ends.
func (r *run) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(r.seconds * float64(time.Second)))
}

var workloads = map[string]func(*run) error{
	"batch-corners": runBatchCorners,
	"big-nets":      runBigNets,
	"serve-zipf":    runServeZipf,
	"whatif-sizing": runWhatif,
}

func main() { os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr)) }

func mainCode(args []string, stdout, stderr io.Writer) (code int) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		workload = fl.String("workload", "", "workload to run: batch-corners, big-nets, serve-zipf or whatif-sizing")
		seed     = fl.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = fl.Float64("seconds", 10, "length of the measuring window")
		trace    = fl.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		bin      = fl.String("bin", ".bench_build", "directory holding the built elmored; scratch files go below it")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn := workloads[*workload]
	if fn == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fl.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments: -workload %q -seconds %v -trace %d\n", *workload, *seconds, *trace)
		return 2
	}
	binDir, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	removeStaleWork(binDir)
	work := filepath.Join(binDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Every exit path below removes the scratch files; children are
	// stopped by the cleanups the workloads defer before this runs.
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := &run{
		ctx: ctx, seed: *seed, seconds: *seconds, trace: *trace == 1,
		work: work, bin: binDir, traces: filepath.Join(binDir, "traces"), name: *workload,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "perfbench: panic: %v\n%s", p, debug.Stack())
			code = 2
		}
	}()
	t0 := readTicks()
	err = fn(r)
	r.note("host steal %.1f%% of the machine's CPU time during the run", 100*t0.stealShare(readTicks()))
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "perfbench: interrupted")
		return 130
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	return r.print(stdout, stderr)
}

// print writes the notes, the metrics by name with their units, the
// environment, and the final JSON line. It returns the exit code: 1
// when an output check failed.
func (r *run) print(stdout, stderr io.Writer) int {
	metrics, units := r.e2e, e2eUnits
	if r.trace {
		metrics, units = r.layer, layerUnits
	}
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "# %s: %s\n", r.name, n)
	}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]any{}
	for _, n := range names {
		v, ok := metrics[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", r.name, n)
			r.fail(fmt.Errorf("metric %s not measured", n))
			v = 0
		}
		fmt.Fprintf(stdout, "%s %s %s %s\n", r.name, n, strconv.FormatFloat(v, 'g', 8, 64), units[n])
		out[n] = map[string]any{"value": v, "unit": units[n]}
	}
	fmt.Fprintf(stdout, "# env %s\n", environment())
	correct := r.checkErr == nil
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", r.name, r.checkErr)
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// environment describes where the numbers were measured.
func environment() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest(),
	})
	return string(b)
}

// sourceDigest hashes the module's Go sources and go.mod files, so a
// result names the code it measured even in a checkout without git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// removeStaleWork deletes scratch directories left by harness processes
// that no longer exist (killed before their cleanup ran).
func removeStaleWork(dir string) {
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		pid, ok := strings.CutPrefix(e.Name(), "work-")
		if !ok || !e.IsDir() {
			continue
		}
		if n, err := strconv.Atoi(pid); err == nil && !processAlive(n) {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

func processAlive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

// peakRSSMB is the peak resident set (VmHWM) of a live process. Unlike
// getrusage it counts nothing from before an exec or from other
// children.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// rssPeak samples this process's resident set while the timed work
// runs, so the peak belongs to the work and not to the set-up's
// garbage. Stop returns the largest sample in MB.
type rssPeak struct {
	once sync.Once
	stop chan struct{}
	max  chan float64
	peak float64
}

func sampleRSS() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), max: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						peak = math.Max(peak, pages*float64(os.Getpagesize())/(1<<20))
					}
				}
			}
			select {
			case <-tick.C:
			case <-p.stop:
				p.max <- peak
				return
			}
		}
	}()
	return p
}

func (p *rssPeak) Stop() float64 {
	p.once.Do(func() {
		close(p.stop)
		p.peak = <-p.max
	})
	return p.peak
}

// timeSetups runs setup n times and reports the median CPU time of one
// set-up (this process plus the CPU seconds setup returns for its
// children) as setup_s, and the median wall time on a "#" line. Every
// setup but the last is torn down; the last one's state is kept by the
// caller. Set-up is repeated so one slow sample does not move the
// result.
func timeSetups(r *run, n int, setup func() (childCPU float64, err error), teardown func() error) error {
	var cpu, wall []float64
	for k := 0; k < n; k++ {
		t0, c0 := time.Now(), cpuSeconds()
		child, err := setup()
		if err != nil {
			return err
		}
		cpu = append(cpu, cpuSeconds()-c0+child)
		wall = append(wall, time.Since(t0).Seconds())
		if k < n-1 {
			if err := teardown(); err != nil {
				return err
			}
		}
	}
	r.e2e["setup_s"] = median(cpu)
	r.note("set-up %.3f s CPU, %.3f s wall (medians of %d)", median(cpu), median(wall), n)
	return nil
}

// cpuSeconds is the user-mode CPU time this process has used. With
// paravirtual steal accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING) it
// leaves out the time the host ran other guests on our CPUs. Kernel
// time is left out too: it grows with lock contention when the host
// preempts the lock holder, so the same 3000 file creations cost
// 0.06 s or 1.5 s of system time depending on the neighbours.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()) / 1e9
}

// procCPUSeconds is the user-mode CPU time of every thread of process
// pid, from /proc/<pid>/stat (utime, in 1/100 s).
func procCPUSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return math.NaN()
	}
	// utime is field 14 of the line, the 12th after the parenthesized
	// command name.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 12 {
		return math.NaN()
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return math.NaN()
	}
	return ut / 100
}

// ticks are the machine-wide steal and total CPU ticks of /proc/stat.
type ticks struct{ steal, total float64 }

func readTicks() ticks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t ticks
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		t.total += x
		if i == 7 {
			t.steal = x
		}
	}
	return t
}

// stealShare is the share of all CPU ticks between a and b that the
// host stole.
func (a ticks) stealShare(b ticks) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// setupRepeats is how many times each workload sets up per run.
const setupRepeats = 3
