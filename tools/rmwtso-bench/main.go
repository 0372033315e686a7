package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// An untraced run builds its workload from scratch at least
// minSetupReps times, and keeps rebuilding while the builds took less
// than setupBudget in all, up to maxSetupReps; setup_s is the median, so
// a cheap set-up is timed often enough to be steady. The last build is
// the one measured.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = 2 * time.Second
)

// workload is one named benchmark workload.
type workload interface {
	// setup builds the workload's inputs and fixtures from scratch.
	setup() error
	// measure runs the workload's timed operation until the deadline and
	// returns what it timed. A non-nil tracer records a span around every
	// layer call the workload makes.
	measure(until time.Time, tr *tracer) (*phase, error)
	// verify runs the one-off correctness checks after the timed phase.
	verify() error
	// report adds the workload's own named end-to-end figures.
	report(p *phase, r *result)
	// close releases the fixtures setup built.
	close()
}

// phase is what one timed phase measured.
type phase struct {
	// lat holds one latency per completed job.
	lat []time.Duration
	// work counts the workload's unit of work (simulated memops,
	// candidate executions or jobs) over busy, the phase's wall time.
	work float64
	busy time.Duration
	// attempted and failed count the phase's operations.
	attempted, failed int
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// printed holds the human-readable metrics in print order.
	printed []string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// show prints a named figure without adding it to the result line.
func (r *result) show(name string, v float64, unit string) {
	r.printed = append(r.printed, fmt.Sprintf("  %-36s %14.6g %s", name, v, unit))
}

// bench carries the run's arguments and its correctness tally.
type bench struct {
	seed    int64
	seconds int
	workers int
	// scratch is the run's private directory under .bench_build.
	scratch string

	// mu guards the tally; serve-warm clients check concurrently.
	mu                sync.Mutex
	attempted, failed int
	failures          []string
}

// check records one correctness check.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// note records why an operation failed; the phase that ran it counts it.
func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// checkErr records a check that passes when err is nil.
func (b *bench) checkErr(err error, what string) bool {
	if err != nil {
		return b.check(false, "%s: %v", what, err)
	}
	return b.check(true, "")
}

// tempDir makes a fresh directory inside the run's scratch directory.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.scratch, prefix)
}

func main() {
	name := flag.String("workload", "", "workload: sweep-cold, litmus-check or serve-warm")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "rmwtso-bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "rmwtso-bench: run from the repository root")
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmwtso-bench:", err)
		os.Exit(2)
	}
	b := &bench{seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), scratch: scratch}
	newWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "rmwtso-bench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	fmt.Printf("rmwtso-bench: workload %s, seed %d, %d s, %d CPUs (%s)\n", *name, b.seed, b.seconds, b.workers, cpuModel())

	var r *result
	if *trace == 1 {
		r, err = runTraced(b, *name, newWorkload)
	} else {
		r, err = runUntraced(b, newWorkload)
	}
	_ = os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmwtso-bench:", err)
		os.Exit(1)
	}
	for _, f := range b.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	r.Attempted, r.Failed = b.attempted, b.failed
	r.Correct = b.failed == 0
	fmt.Printf("checks: %d attempted, %d failed, error_rate %g\n", b.attempted, b.failed, float64(b.failed)/float64(b.attempted))
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmwtso-bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(*bench) workload{
	"sweep-cold":   newSweepCold,
	"litmus-check": newLitmusCheck,
	"serve-warm":   newServeWarm,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runUntraced sets the workload up several times, measures the last
// set-up for b.seconds, runs its checks and reports the end-to-end
// metrics.
func runUntraced(b *bench, newWorkload func(*bench) workload) (*result, error) {
	var setups []time.Duration
	var spent time.Duration
	var w workload
	for len(setups) < minSetupReps || (spent < setupBudget && len(setups) < maxSetupReps) {
		if w != nil {
			w.close()
		}
		w = newWorkload(b)
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		spent += setups[len(setups)-1]
	}
	defer w.close()
	p, err := w.measure(time.Now().Add(time.Duration(b.seconds)*time.Second), nil)
	if err != nil {
		return nil, err
	}
	b.attempted += p.attempted
	b.failed += p.failed
	if err := w.verify(); err != nil {
		return nil, err
	}
	if len(p.lat) == 0 {
		return nil, fmt.Errorf("the timed phase completed no job")
	}
	r := &result{Metrics: map[string]metric{}}
	r.set("setup_s", median(setups).Seconds(), "s")
	r.set("job_latency_p50_ms", ms(quantile(p.lat, 0.5)), "ms")
	r.set("job_latency_p90_ms", ms(quantile(p.lat, 0.9)), "ms")
	r.set("work_per_s", p.work/p.busy.Seconds(), "1/s")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	w.report(p, r)
	r.show("set-ups timed", float64(len(setups)), "count")
	printResult(r, len(p.lat))
	return r, nil
}

// printResult prints the result's metrics by name with their units.
func printResult(r *result, jobs int) {
	fmt.Printf("end-to-end metrics (%d jobs timed):\n", jobs)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, line := range r.printed {
		fmt.Println(line)
	}
}

// quantile returns the q-quantile of the samples, interpolating between
// the nearest ranks.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(samples []time.Duration) time.Duration { return quantile(samples, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel names the host CPU for the printed header.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
