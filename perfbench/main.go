// Command perfbench is the repository benchmark. Each invocation runs one
// workload in its own process and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones every workload
// reports (setup_s, max_rss_mb, ops_per_cpu_s); with -trace 1
// they are the per-layer costs and exact counters of the seam-replay run
// (see seam.go). Lines before the JSON object are a human-readable
// report, including each workload's own named metrics. README.md maps
// every metric to its layer and workload.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload table3-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times every workload repeats its set-up; setup_s
// is the median, the first repetition timed from process start.
//
// Every gated time is process CPU time (user + system, all threads), not
// wall time: on a shared virtual machine the hypervisor hands a vCPU to
// other tenants for whole seconds, and the guest kernel counts that
// stolen time in wall time but not in a process's CPU time.
const setupReps = 7

// minRounds is the least number of timed rounds a run makes, however
// short --seconds is.
const minRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's shared state: its arguments, its operation
// tally, and the metrics it has measured.
type bench struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // checkout root (testdata pins are read from here)
	work    string // scratch directory for disk caches, removed at exit

	attempted, failed int64
	problems          []string // failed checks, reported on stderr
	metrics           map[string]metric

	setupFn func() error // the workload's set-up, repeated by rounds
	setups  []float64    // seconds each set-up took
}

// workloads maps each workload name to its runner. A runner measures its
// end-to-end metrics, or with b.trace its per-layer ones, and records
// every operation and check through b.op and b.check.
var workloads = map[string]func(*bench) error{
	"table3-cold":         runTable3Cold,
	"pdn-techniques-cold": runPDNCold,
	"serve-zipf":          runServeZipf,
	"paper-warm":          runPaperWarm,
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the workload's generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed rounds run")
	trace := flag.Int("trace", 0, "1 runs the seam-replay trace and reports per-layer metrics")
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	work := flag.String("work", ".bench_build/work", "scratch directory for disk caches")
	writeRef := flag.Bool("write-reference", false, "regenerate reference.json from engine.Execute and exit")
	flag.Parse()

	if *writeRef {
		if err := writeReference(filepath.Join(*root, "perfbench", referenceFile)); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	b := &bench{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		root:    *root,
		metrics: map[string]metric{},
	}
	if err := checkCheckout(b.root); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(mkdirAll(*work), *name+"-")
	if err != nil {
		fatal(err)
	}
	b.work = dir
	err = run(b)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out := output{
		Correct:   len(b.problems) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkCheckout refuses to run outside a repository checkout: the
// benchmark measures the simulator it was built against, and its pins
// live in the checkout's testdata.
func checkCheckout(root string) error {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("%s is not a repository checkout (no go.mod)", root)
	}
	return nil
}

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

// op records one operation: attempted always, failed unless ok.
func (b *bench) op(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.problem(format, args...)
	}
}

// check records a correctness check that is not itself an operation.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problem(format, args...)
	}
}

func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// set records a gated metric of this run.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// report prints one human-readable metric line.
func report(name string, v float64, unit, note string) {
	fmt.Printf("%-36s %14.6g %-8s %s\n", name, v, unit, note)
}

// setup runs the workload's set-up fn once, timed in CPU time from
// process start, and keeps fn for rounds to repeat: each repetition must
// redo the whole set-up from scratch, and leave the product of the first
// in place.
// After every set-up, untimed, the files it wrote (paper-warm's disk
// cache) are flushed, so their writeback lands in neither a timed round
// nor the next set-up.
func (b *bench) setup(fn func() error) error {
	if err := fn(); err != nil {
		return err
	}
	b.setupFn = fn
	b.setups = append(b.setups, cpuTime().Seconds())
	syscall.Sync()
	return nil
}

// resetup repeats the set-up once, on a collected heap and collecting its
// garbage after it, so neither it nor the rounds around it pay for the
// other's allocations.
func (b *bench) resetup() error {
	runtime.GC()
	c0 := cpuTime()
	if err := b.setupFn(); err != nil {
		return err
	}
	b.setups = append(b.setups, (cpuTime() - c0).Seconds())
	syscall.Sync()
	runtime.GC()
	return nil
}

// setupDue reports whether the next set-up repetition is due, elapsed
// into the timed rounds: the setupReps-1 repetitions after the first are
// spread evenly over the --seconds window, so a host slowdown of a few
// seconds reaches only some of them, and their median stays steady.
func (b *bench) setupDue(elapsed time.Duration) bool {
	k := len(b.setups) // repetitions 1..setupReps-1 are due at (k-1)/(setupReps-1) of the window
	return k < setupReps && elapsed.Seconds() >= float64(k-1)*b.seconds/float64(setupReps-1)
}

// round is one timed repetition of a workload's fixed list of work.
type round struct {
	ops  int           // operations completed
	wall time.Duration // host wall time
	cpu  time.Duration // host CPU time of the whole process
	rss  float64       // peak resident set size during the round, MB
}

// rounds runs fn once untimed as a warm-up, then repeatedly until
// --seconds have elapsed (at least minRounds times), and records
// ops_per_cpu_s as the median over the timed rounds of operations per
// CPU second (the median wall-time rate is reported alongside, ungated:
// it also counts the seconds the host gave to others), and max_rss_mb as
// the median of the rounds' peak resident set sizes. Every round starts,
// untimed, from a collected heap whose free pages are returned to the
// OS: where the previous round left the GC and the scavenger otherwise
// moved a round's peak RSS between two levels 40% apart. Between rounds
// it repeats the set-up (see setupDue) and records setup_s as the median
// set-up.
// fn performs one round's fixed work and returns how many operations it
// completed; its own checks run after its timed span ends.
func (b *bench) rounds(fn func(timed func(func() int)) error) ([]round, error) {
	var rs []round
	timed := func(work func() int) {
		debug.FreeOSMemory()
		resetPeakRSS()
		c0, t0 := cpuTime(), time.Now()
		n := work()
		rs = append(rs, round{ops: n, wall: time.Since(t0), cpu: cpuTime() - c0, rss: peakRSSMB()})
	}
	if err := fn(timed); err != nil {
		return nil, err
	}
	rs = rs[:0]
	start := time.Now()
	for len(rs) < minRounds || time.Since(start).Seconds() < b.seconds {
		if b.setupDue(time.Since(start)) {
			if err := b.resetup(); err != nil {
				return nil, err
			}
		}
		if err := fn(timed); err != nil {
			return nil, err
		}
	}
	for len(b.setups) < setupReps {
		if err := b.resetup(); err != nil {
			return nil, err
		}
	}
	b.set("setup_s", median(b.setups), "s")
	report("setup_s", median(b.setups), "s", fmt.Sprintf("CPU time, median of %d set-ups (range %.4g–%.4g), the first from process start",
		len(b.setups), nearestRank(b.setups, 0), nearestRank(b.setups, 1)))
	var rate, wall, rss []float64
	for _, r := range rs {
		rate = append(rate, float64(r.ops)/r.cpu.Seconds())
		wall = append(wall, float64(r.ops)/r.wall.Seconds())
		rss = append(rss, r.rss)
	}
	b.set("max_rss_mb", median(rss), "MB")
	report("max_rss_mb", median(rss), "MB", fmt.Sprintf("median of the rounds' peak RSS (range %.4g–%.4g)",
		nearestRank(rss, 0), nearestRank(rss, 1)))
	b.set("ops_per_cpu_s", median(rate), "1/s")
	report("ops_per_cpu_s", median(rate), "1/s", fmt.Sprintf("per CPU second (all threads), median of %d rounds of %d ops (range %.4g–%.4g)",
		len(rs), rs[0].ops, nearestRank(rate, 0), nearestRank(rate, 1)))
	report("ops_per_wall_s", median(wall), "1/s", fmt.Sprintf("per wall second, median of %d rounds (range %.4g–%.4g)",
		len(rs), nearestRank(wall, 0), nearestRank(wall, 1)))
	return rs, nil
}

// medianRate is the median over rounds of units/wall seconds, where
// units(i) is round i's amount of work in the caller's unit.
func medianRate(rs []round, units func(i int) float64) float64 {
	var v []float64
	for i, r := range rs {
		v = append(v, units(i)/r.wall.Seconds())
	}
	return median(v)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// nearestRank returns the p-quantile (0 < p ≤ 1) of v by the
// nearest-rank definition: the smallest sample at or above a p share of
// the samples.
func nearestRank(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(float64(len(s))*p+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size from its current size (Linux; elsewhere a no-op, and
// peakRSSMB then reports the peak since process start).
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MB since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return maxRSSMB()
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return maxRSSMB()
}

// maxRSSMB is the process's peak resident set size in MB since it
// started.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
