// Command perfbench is the repository's benchmark. It replays four
// app-traffic workloads against the simulated Anception platform and
// reports end-to-end metrics on both clocks — simulated time, which is
// the model's claim about Anception, and host time, which is what the
// simulator costs to run — plus per-layer metrics from a traced run.
//
//	bash perfbench/run.sh --workload app-fleet --seed 1 --seconds 20 --trace 0
//
// A run repeats rounds until --seconds of host time have passed. Each
// round boots fresh devices, replays the same seeded inputs, times a
// fixed amount of work, and checks every output; the run reports
// medians over rounds. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"anception/internal/anception"
)

// roundConfig is what a workload needs to run one round.
type roundConfig struct {
	seed   int64
	scale  float64 // 1 for a measured run; smaller in the self-test
	traced bool
	epoch  time.Time
	spans  *[]span // where a traced round keeps its spans, or nil
}

// size scales a per-round operation count, keeping at least floor.
func (c roundConfig) size(n, floor int) int {
	return max(int(float64(n)*c.scale), floor)
}

// roundResult is what one round measured.
type roundResult struct {
	setup   time.Duration // host time to boot, install, enrol and warm up
	window  time.Duration // host time of the timed window
	ops     int
	bulkOps int
	failed  int

	simOpsPerSec float64
	rec          *recorder // every driver's samples, merged; dropped by reduce
	layer        map[string]float64
	paperErrPct  float64

	// Filled by reduce from rec.
	sim       [3]float64 // simNames order
	samples   int
	classSim  [reportedOps]float64 // median simulated µs per call class
	classHost [reportedOps]float64 // median host ns per call class

	allocBytes, allocs uint64
	gcCycles           uint32
	gcPause            time.Duration

	violations []string
	windows    []span
}

// fail records a wrong output or failed call.
func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// hostWindow measures the host side of a timed window.
type hostWindow struct {
	ms0 runtime.MemStats
	t0  time.Time
}

func openWindow() *hostWindow {
	runtime.GC()
	w := &hostWindow{}
	runtime.ReadMemStats(&w.ms0)
	w.t0 = time.Now()
	return w
}

func (w *hostWindow) close(res *roundResult) {
	res.window = time.Since(w.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.allocBytes = ms.TotalAlloc - w.ms0.TotalAlloc
	res.allocs = ms.Mallocs - w.ms0.Mallocs
	res.gcCycles = ms.NumGC - w.ms0.NumGC
	res.gcPause = time.Duration(ms.PauseTotalNs - w.ms0.PauseTotalNs)
}

// deviceWindow brackets the timed window of a workload that runs on one
// device: its counters, the host clock and the simulated clock.
type deviceWindow struct {
	d        *anception.Device
	c0, c1   counters
	host     *hostWindow
	hostFrom time.Time
	simStart time.Duration
}

func openDeviceWindow(d *anception.Device) *deviceWindow {
	w := &deviceWindow{d: d, c0: readCounters(d)}
	w.host = openWindow()
	w.hostFrom = time.Now()
	w.simStart = d.Clock.Now()
	return w
}

// close ends the window, records its span and the counters, and
// returns the simulated time it took.
func (w *deviceWindow) close(res *roundResult, epoch time.Time) time.Duration {
	simEnd := w.d.Clock.Now()
	res.windows = []span{{parent: -1, simStart: w.simStart, simEnd: simEnd,
		hostFrom: w.hostFrom.Sub(epoch), hostTo: time.Since(epoch)}}
	w.host.close(res)
	w.c1 = readCounters(w.d)
	return simEnd - w.simStart
}

// layers sets the round's per-layer counter metrics from the counters'
// movement over the window; res.ops and res.bulkOps must be final.
func (w *deviceWindow) layers(res *roundResult) {
	var delta layerDelta
	delta.add(w.c0, w.c1)
	res.layer = delta.metrics(res.ops, res.bulkOps)
	res.layer["anception.fleet.shard_skew"] = 1
}

// workload is one traffic mix.
type workload struct {
	name string
	run  func(cfg roundConfig) (*roundResult, error)
}

var allWorkloads = []workload{
	{"paper-sync", runPaperSync},
	{"app-fleet", runAppFleet},
	{"db-commit", runDBCommit},
	{"net-open", runNetOpen},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runResult is the printed result line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// simTolerance is how far the traced rounds' median simulated metrics
// may sit from the untraced rounds' before the run fails: tracing may
// cost host time only. Identical rounds are not quite identical — the
// simulator's shared-clock race has moved one round's app-fleet p99 by
// 0.21% — so the check compares medians, with room above that drift.
const simTolerance = 0.005

func main() {
	var (
		name     = flag.String("workload", "", "workload: paper-sync, app-fleet, db-commit or net-open")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "host seconds to keep running rounds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from traced rounds")
		traceDir = flag.String("trace-dir", "", "directory for the span file of a traced run")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *traceDir, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, traceDir, specPath string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, spans, windows, err := measure(w, seed, seconds, traced, 1)
	if err != nil {
		return err
	}
	if err := sp.check(res.Metrics, traced); err != nil {
		return err
	}
	if traced {
		if err := writeTrace(traceDir, w.name, seed, spans, windows); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("outputs or accounting identities were wrong")
	}
	return nil
}

// measure runs rounds of w until seconds of host time have passed and
// returns the result line plus the spans of the first traced round.
// With traced set, odd rounds are traced and even rounds are not, so the
// run also measures the tracing overhead and checks that tracing leaves
// simulated time alone.
func measure(w workload, seed int64, seconds float64, traced bool, scale float64) (runResult, []span, []span, error) {
	minRounds := 3
	if traced {
		minRounds = 4
	}
	start := time.Now()
	var rounds []*roundResult
	var tracedRounds []bool
	var spans []span
	var windows []span
	for r := 0; r < minRounds || time.Since(start).Seconds() < seconds; r++ {
		// Every round starts from a collected heap returned to the OS, so
		// the peak resident set is one round's, not the sum of the
		// garbage of however many rounds fit in the run.
		debug.FreeOSMemory()
		cfg := roundConfig{seed: seed, scale: scale, traced: traced && r%2 == 1, epoch: start}
		if cfg.traced && spans == nil {
			spans = make([]span, 0, 1024)
			cfg.spans = &spans
		}
		res, err := w.run(cfg)
		if err != nil {
			return runResult{}, nil, nil, fmt.Errorf("%s round %d: %w", w.name, r, err)
		}
		if cfg.spans != nil {
			windows = res.windows
		}
		res.reduce()
		rounds = append(rounds, res)
		tracedRounds = append(tracedRounds, cfg.traced)
	}
	return summarize(rounds, tracedRounds, traced), spans, windows, nil
}

// reduce replaces the round's samples with the statistics the result
// needs, so a long run holds a few numbers per round, not every sample.
func (r *roundResult) reduce() {
	us := float64(time.Microsecond)
	r.sim = [3]float64{r.simOpsPerSec, quantile(r.rec.lat, 0.50) / us, quantile(r.rec.lat, 0.99) / us}
	r.samples = len(r.rec.lat)
	for op := range r.classSim {
		r.classSim[op] = quantile(r.rec.sim[op], 0.5) / us
		r.classHost[op] = quantile(r.rec.host[op], 0.5)
	}
	r.rec = nil
}

var simNames = [3]string{"sim_ops_per_s", "sim_p50_us", "sim_p99_us"}

// summarize turns the rounds into the result line: medians over rounds,
// per-layer host times from the traced rounds only.
func summarize(rounds []*roundResult, tracedRounds []bool, traced bool) runResult {
	out := runResult{Correct: true, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, v)
			v = 0
		}
		out.Metrics[name] = metric{Value: v, Unit: unit}
	}
	// over is the median of f over the rounds that keep says to.
	over := func(keep func(i int) bool, f func(i int, r *roundResult) float64) float64 {
		var vs []float64
		for i, r := range rounds {
			if keep(i) {
				vs = append(vs, f(i, r))
			}
		}
		return median(vs)
	}
	all := func(int) bool { return true }
	withTrace := func(i int) bool { return tracedRounds[i] }
	without := func(i int) bool { return !tracedRounds[i] }

	samples := 0
	for _, r := range rounds {
		out.Attempted += r.ops
		out.Failed += r.failed
		for _, v := range r.violations {
			fmt.Fprintln(os.Stderr, "perfbench: identity violated:", v)
		}
		out.Failed += len(r.violations)
		samples = r.samples
	}
	if out.Failed > 0 {
		out.Correct = false
	}

	// Every round replays the same inputs, so its simulated metrics
	// should repeat; drift is the largest departure from the first
	// (untraced) round.
	var drift [3]float64
	for _, r := range rounds {
		for k := range r.sim {
			drift[k] = max(drift[k], relDiff(r.sim[k], rounds[0].sim[k]))
		}
	}
	simMetric := func(k int) func(int, *roundResult) float64 {
		return func(_ int, r *roundResult) float64 { return r.sim[k] }
	}
	hostOps := func(_ int, r *roundResult) float64 { return float64(r.ops) / r.window.Seconds() }

	if !traced {
		units := [3]string{"1/s", "us", "us"}
		for k, name := range simNames {
			put(name, units[k], over(all, simMetric(k)))
		}
		put("host_ops_per_s", "1/s", over(all, hostOps))
		put("host_alloc_bytes_per_op", "B", over(all, func(_ int, r *roundResult) float64 { return float64(r.allocBytes) / float64(r.ops) }))
		put("host_allocs_per_op", "count", over(all, func(_ int, r *roundResult) float64 { return float64(r.allocs) / float64(r.ops) }))
		put("host_max_rss_mb", "MB", maxRSSMB())
		put("setup_s", "s", over(all, func(_ int, r *roundResult) float64 { return r.setup.Seconds() }))
		put("paper_err_pct", "%", over(all, func(_ int, r *roundResult) float64 { return r.paperErrPct }))
		fmt.Printf("rounds %d, latency samples per round %d, drift %% ops/s %.6f p50 %.6f p99 %.6f\n",
			len(rounds), samples, 100*drift[0], 100*drift[1], 100*drift[2])
		return out
	}

	for k, name := range simNames {
		if d := relDiff(over(withTrace, simMetric(k)), over(without, simMetric(k))); d > simTolerance {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: tracing moved %s by %.4f%%\n", name, 100*d)
		}
	}
	for op := opKind(0); op < reportedOps; op++ {
		put(opNames[op]+".sim_us", "us", over(all, func(_ int, r *roundResult) float64 { return r.classSim[op] }))
		put(opNames[op]+".host_ns", "ns", over(withTrace, func(_ int, r *roundResult) float64 { return r.classHost[op] }))
	}
	for name := range rounds[0].layer {
		put(name, layerUnit(name), over(all, func(_ int, r *roundResult) float64 { return r.layer[name] }))
	}
	put("go.gc_cycles_per_kop", "count", over(all, func(_ int, r *roundResult) float64 { return 1000 * float64(r.gcCycles) / float64(r.ops) }))
	put("go.gc_pause_ms", "ms", over(all, func(_ int, r *roundResult) float64 { return float64(r.gcPause) / float64(time.Millisecond) }))
	plain := over(without, hostOps)
	put("bench.trace_overhead_pct", "%", 100*(plain-over(withTrace, hostOps))/plain)
	put("bench.latency_samples", "count", float64(samples))
	for k, name := range simNames {
		put("bench."+name+".drift_pct", "%", 100*drift[k])
	}
	return out
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(b), 1e-12)
}

// maxRSSMB is the process's peak resident set, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
