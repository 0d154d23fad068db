// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, verifies every output, and prints as its
// last stdout line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a
// traced run reports the per-layer set instead. The line before it is a
// JSON detail record (sample counts, spreads, host, determinism digest),
// also written under --out. See README.md for the workloads and metrics.
//
// Usage (normally through run.py, which builds this binary and dramdigd):
//
//	perfbench --workload paper_live|replay_strict|daemon_mixed --seed N
//	          --seconds S --trace 0|1 [--smoke] [--dramdigd PATH] [--out DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	dramdigd string
	outDir   string
}

// setupReps is how many times a full run repeats its set-up; setup_s is
// the median, so one slow construction moves one sample. paper_live's
// set-up takes a fraction of a second, so it repeats more often.
func (c config) setupReps() int {
	switch {
	case c.smoke:
		return 1
	case c.workload == "paper_live":
		return 7
	}
	return 3
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// checker accounts for verified and failed operations. A determinism or
// accounting violation is not an operation; it marks the run incorrect.
type checker struct {
	attempted, failed int
	broken            bool
	msgs              []string
	log               io.Writer
}

const maxMessages = 20

func (c *checker) pass() { c.attempted++ }

// fail records a failed operation.
func (c *checker) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	c.note("FAIL: "+format, args...)
}

// violate records a broken invariant (determinism, accounting).
func (c *checker) violate(format string, args ...any) {
	c.broken = true
	c.note("VIOLATION: "+format, args...)
}

func (c *checker) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(c.log, "perfbench:", msg)
	if len(c.msgs) < maxMessages {
		c.msgs = append(c.msgs, msg)
	}
}

func (c *checker) okFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.attempted-c.failed) / float64(c.attempted)
}

// workload runs one measured session and returns its metrics plus a
// free-form detail record.
type workload func(cfg config, chk *checker) (*report, map[string]any, error)

var workloads = map[string]workload{
	"paper_live":    runPaperLive,
	"replay_strict": runReplayStrict,
	"daemon_mixed":  runDaemonMixed,
}

func main() {
	// On SIGINT or SIGTERM, stop the daemon daemon_mixed runs and wait
	// for it before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		stopRunning()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", sig)
		os.Exit(1)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := execute(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "paper_live, replay_strict or daemon_mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer mode")
	fs.BoolVar(&cfg.smoke, "smoke", false, "single set-up and no sample minimums (for quick checks)")
	fs.StringVar(&cfg.dramdigd, "dramdigd", filepath.Join(".bench_build", "perfbench", "bin", "dramdigd"), "dramdigd binary for daemon_mixed")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for detail records, spans and daemon state")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = traceFlag == 1
	return cfg, nil
}

// execute runs the workload and returns the result line; the detail
// record is printed and written before it.
func execute(cfg config, stdout, stderr io.Writer) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	host := hostInfo()
	cpu0 := cpuTicks()
	chk := &checker{log: stderr}
	rep, detail, err := workloads[cfg.workload](cfg, chk)
	if err != nil {
		return "", err
	}
	host["loadavg_end"] = loadAvg()
	host["cpu_shares"] = cpuShares(cpu0, cpuTicks())

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		rep.set("ok_frac", chk.okFrac(), chk.attempted)
	}
	metrics, err := rep.render(defs)
	if err != nil {
		return "", err
	}
	correct := chk.failed == 0 && !chk.broken && chk.attempted > 0

	samples := map[string]int{}
	for _, d := range defs {
		samples[d.Name] = rep.samples[d.Name]
	}
	record := map[string]any{
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"seconds":   cfg.seconds,
		"trace":     cfg.trace,
		"smoke":     cfg.smoke,
		"host":      host,
		"samples":   samples,
		"detail":    detail,
		"attempted": chk.attempted,
		"failed":    chk.failed,
		"correct":   correct,
		"messages":  chk.msgs,
		"metrics":   metrics,
	}
	rec, err := json.Marshal(map[string]any{"perfbench_detail": record})
	if err != nil {
		return "", err
	}
	fmt.Fprintln(stdout, string(rec))
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace))
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), append(rec, '\n'), 0o644); err != nil {
		return "", err
	}

	result, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, chk.attempted, chk.failed, metrics})
	return string(result), err
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hostInfo records what a noisy run needs to be diagnosed afterwards.
func hostInfo() map[string]any {
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"loadavg_start": loadAvg(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAvg returns the 1, 5 and 15 minute load averages.
func loadAvg() [3]float64 {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return [3]float64{}
	}
	const scale = 1 << 16 // SI_LOAD_SHIFT
	return [3]float64{
		float64(si.Loads[0]) / scale,
		float64(si.Loads[1]) / scale,
		float64(si.Loads[2]) / scale,
	}
}

// stealLimit is the host steal share up to which a library cycle or a
// daemon slice always counts towards the end-to-end metrics: on a shared
// hypervisor, steal comes with neighbours that slow this host's runs by
// about twice the stolen share, and the latency-bound daemon workload
// several-fold.
const stealLimit = 0.05

// leastStolen picks the cycles or slices the end-to-end metrics come
// from, given the host steal share of each (0 when it could not be read):
// every one with steal at most stealLimit, and never fewer than least, the
// least stolen first. It returns the indices in the order they were picked
// (least stolen first) and how many of them to keep. A caller that needs
// more samples may keep further indices of the order. A run under steal
// throughout so reports its least disturbed part instead of failing.
func leastStolen(steal []float64, least int) (order []int, keep int) {
	order = make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	for _, i := range order {
		if steal[i] <= stealLimit {
			keep++
		}
	}
	return order, max(keep, min(least, len(steal)))
}

// cpuTicks returns the host-wide CPU time counters of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal.
func cpuTicks() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]float64, 8)
	for i := range out {
		out[i], _ = strconv.ParseFloat(fields[i+1], 64)
	}
	return out
}

// cpuShares is how the host's CPUs spent the run: busy (any tenant),
// iowait, and steal (time the hypervisor gave to other guests).
func cpuShares(a, b []float64) map[string]float64 {
	if len(a) != 8 || len(b) != 8 {
		return nil
	}
	d := make([]float64, 8)
	total := 0.0
	for i := range d {
		d[i] = b[i] - a[i]
		total += d[i]
	}
	if total <= 0 {
		return nil
	}
	return map[string]float64{
		"busy":   (d[0] + d[1] + d[2] + d[5] + d[6]) / total,
		"iowait": d[4] / total,
		"steal":  d[7] / total,
	}
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
