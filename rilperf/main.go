// Command rilperf is the repository's end-to-end benchmark. It runs one
// workload per invocation — attack-c7552, daemon-flood or table-cache —
// against the repo's packages, checks every output, and prints the
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every workload prints the same metric names, each measured on that
// workload's own operation: with --trace 0 the end-to-end figures, with
// --trace 1, which records a span at every layer boundary the run calls
// into, the per-layer figures. Figures that only one workload has are
// printed above the result line. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what a workload receives: the run's knobs and its private
// scratch directory inside the checkout.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string    // scratch root for this workload's files
	rec     *recorder // nil unless trace
}

// endToEnd and perLayer are the metric names of the result line with
// tracing off and on, the same for every workload; BENCHMARK.json lists
// them in this order. The end-to-end times are CPU times: this host's
// neighbours move wall times by up to 2x between runs minutes apart,
// CPU times less (README.md, "Why CPU time").
var (
	endToEnd = []string{"setup_s", "peak_rss_mb", "op_cpu_ms", "bulk_cpu_s"}
	perLayer = []string{
		"stage.load_ms.p50", "stage.work_ms.p50", "stage.work_ms.p99", "stage.finish_ms.p50",
		"stage.finish_growth", "attack.oracle_queries", "sat.solve_calls",
		"trace.overhead_pct", "trace.unattributed_pct.max",
	}
)

// outcome is what a workload returns. failed counts operations whose
// output was wrong; each is also explained in notes. metrics go on the
// result line; details are the workload's own figures, printed above it.
type outcome struct {
	attempted, failed int
	metrics, details  []metric
	notes             []string
}

type metric struct {
	name  string
	unit  string
	value float64
}

func (o *outcome) add(name, unit string, value float64) {
	o.metrics = append(o.metrics, metric{name, unit, value})
}

func (o *outcome) detail(name, unit string, value float64) {
	o.details = append(o.details, metric{name, unit, value})
}

// fail records one failed operation without aborting the run.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"attack-c7552": runAttack,
	"daemon-flood": runDaemon,
	"table-cache":  runTable,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "attack-c7552, daemon-flood or table-cache")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 10, "how long the timed part measures")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	workDir := flag.String("work-dir", filepath.Join(".bench_build", "rilperf", "work"), "scratch directory")
	attackBench := flag.String("attack-probe", "", "attack the lock in this .bench file, print the peak RSS and exit (attack-c7552's memory probe)")
	warmCache := flag.String("warm-probe", "", "regenerate the --seed table set from the cache in this directory, print the peak RSS and exit (table-cache's memory probe)")
	flag.Parse()
	switch {
	case *attackBench != "":
		return attackProbe(*attackBench)
	case *warmCache != "":
		return warmProbe(*warmCache, *seed)
	}

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rilperf: usage: --workload attack-c7552|daemon-flood|table-cache --seed N --seconds S --trace 0|1\n")
		return 2
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		dir:     filepath.Join(*workDir, *name),
	}
	if e.trace {
		e.rec = newRecorder()
	}
	// Old state of an earlier run must not change this one's timings.
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintf(os.Stderr, "rilperf: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "rilperf: %v\n", err)
		return 1
	}
	// Write back what earlier runs left dirty, so it is not flushed
	// during this run's set-up.
	syscall.Sync()
	steal0, serr0 := hostSteal()
	out, err := fn(e)
	if steal1, serr1 := hostSteal(); err == nil && serr0 == nil && serr1 == nil {
		// Not a layer of the program: the share of this host's CPU time
		// the hypervisor gave to other machines during the run. A high
		// value explains slow timings without any code change.
		out.detail("host.steal_pct", "%", 100*steal1.share(steal0))
	}
	if err == nil && e.trace {
		err = e.rec.write(filepath.Join(*workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed)))
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rilperf: %s: %v\n", *name, err)
		return 1
	}
	want := perLayer
	if !e.trace {
		want = endToEnd
	}
	return printResult(out, want)
}

// printResult prints one human-readable line per detail and metric and
// the verdict, then the JSON result as the last line. The metrics must
// be exactly the names in want.
func printResult(o *outcome, want []string) int {
	for _, n := range o.notes {
		fmt.Printf("FAIL %s\n", n)
	}
	var got []string
	for _, m := range o.metrics {
		got = append(got, m.name)
	}
	if !sameNames(got, want) {
		fmt.Fprintf(os.Stderr, "rilperf: the workload measured %v, the result line needs %v\n", got, want)
		return 1
	}
	for _, m := range o.details {
		fmt.Printf("  %-30s %16.6g %s\n", m.name, m.value, m.unit)
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, map[string]map[string]any{}}
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "rilperf: metric %s has no value\n", m.name)
			return 1
		}
		fmt.Printf("%-32s %16.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rilperf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// sameNames reports whether a and b hold the same names, in any order.
func sameNames(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return slices.Equal(a, b)
}

// cpuTime is the CPU time this process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childRSS runs this program with args in a child process, which does
// one user operation and prints its own peak resident set in MB, and
// returns that figure. The child reads it itself: the rusage of a child
// also counts the pages of the parent it was started from.
func childRSS(exe string, args ...string) (float64, error) {
	cmd := exec.Command(exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("memory probe: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	mb, err := strconv.ParseFloat(strings.TrimSpace(stdout.String()), 64)
	if err != nil {
		return 0, fmt.Errorf("memory probe: %w", err)
	}
	return mb, nil
}

// peakRSSMB is this process's resident-set high-water mark. It is read
// from /proc rather than taken from getrusage, whose figure can include
// the pages of the process this one was started from.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return float64(kb) / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM")
}

// timeSetup runs build repeats times and returns the median wall and
// CPU times with the last build's result. The median keeps one slow
// repeat from moving setup_s.
func timeSetup[T any](repeats int, build func(i int) (T, error)) (T, float64, float64, error) {
	var last T
	var secs, cpu []float64
	for i := 0; i < repeats; i++ {
		t0, c0 := time.Now(), cpuTime()
		v, err := build(i)
		if err != nil {
			return last, 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		last = v
		// Collect each repeat's garbage, so peak RSS reflects the
		// workload rather than when the collector happened to run.
		runtime.GC()
	}
	return last, quantile(secs, 0.5), quantile(cpu, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// deriveSeed maps (workload seed, index) to an input seed with a
// 64-bit mix, so neighbouring workload seeds share no inputs.
func deriveSeed(seed int64, index int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(index)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// cpuTicks is the first line of /proc/stat: total and stolen ticks.
type cpuTicks struct{ total, steal int64 }

func hostSteal() (cpuTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var t cpuTicks
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user … steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// share is the stolen fraction of the ticks between before and t.
func (t cpuTicks) share(before cpuTicks) float64 {
	if t.total == before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}
