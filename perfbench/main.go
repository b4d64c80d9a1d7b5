// Command perfbench is the repository's end-to-end benchmark. It drives one
// named workload through the public entry points of the simulator and the
// live TCP broadcast system, checks every answer, and prints the metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs twice, untraced and then traced, and the metrics are the
// per-layer ones. README.md in this directory lists every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// set records one metric; non-finite values (an empty sample) read 0.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options carries the run's flags plus the knobs the self-tests use to
// shrink workloads and plant faults. The command line sets only the flags.
type options struct {
	seed    int64
	seconds time.Duration

	// scale multiplies request counts and rates; 1 on the command line.
	scale float64
	// setupReps is how many times a run sets up, for the setup_s median.
	setupReps int
	// slowSchedule delays every scheduling call (planted regression).
	slowSchedule time.Duration
	// wrongAnswer removes one answer document from the program's
	// collection while the checker keeps it (planted wrong answer).
	wrongAnswer bool
}

// pass is one measured execution of a workload.
type pass struct {
	attempted, failed int64
	// invalid names why the run cannot be trusted (for example an
	// open-loop generator that fell behind); empty when valid.
	invalid string
	// throughput is completed requests per second, for trace overhead.
	throughput float64
	e2e        metrics
	layer      metrics
}

// endToEnd is one untraced pass's results, in the units of
// endToEndMetrics.
type endToEnd struct {
	setupS, p50, p99, throughput, cpuReq, cpuCycle, access, tuning, heapMB float64
}

// metrics names the results and adds the pass's success share.
func (e endToEnd) metrics(p *pass) metrics {
	m := metrics{}
	m.set("setup_s", e.setupS, "s")
	m.set("latency_p50_ms", e.p50, "ms")
	m.set("latency_p99_ms", e.p99, "ms")
	m.set("throughput_rps", e.throughput, "1/s")
	m.set("cpu_ms_per_req", e.cpuReq, "ms")
	m.set("cpu_ms_per_cycle", e.cpuCycle, "ms")
	m.set("access_bytes_mean", e.access, "bytes")
	m.set("tuning_bytes_mean", e.tuning, "bytes")
	m.set("success_ratio", 1-ratio(float64(p.failed), float64(p.attempted)), "ratio")
	m.set("heap_peak_mb", e.heapMB, "MB")
	return m
}

// workload is one named input set and traffic mix.
type workload struct {
	name string
	// params lists every workload parameter for the fingerprint.
	params func(o options) map[string]any
	run    func(o options, traced bool) (*pass, error)
}

var workloads = []workload{simTable2, liveClosedDeep, liveOpenTable2}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload name: sim-table2, live-closed-deep or live-open-table2")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced pass and prints per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	o := options{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		scale:     1,
		setupReps: 7,
	}
	res, err := runWorkload(w, o, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fp, err := json.Marshal(map[string]any{"fingerprint": fingerprint(w, o)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: fingerprint: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(fp))
	fmt.Println(string(line))
}

// runWorkload executes the untraced pass and, when traced, a second traced
// pass, and folds them into the output line.
func runWorkload(w workload, o options, traced bool) (*result, error) {
	plain, err := w.run(o, false)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: plain.e2e}
	invalid := plain.invalid
	if traced {
		tr, err := w.run(o, true)
		if err != nil {
			return nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		if invalid == "" {
			invalid = tr.invalid
		}
		res.Metrics = tr.layer
		res.Metrics.set("fail_ratio", ratio(float64(tr.failed), float64(tr.attempted)), "ratio")
		res.Metrics.set("trace.overhead_ratio", ratio(tr.throughput, plain.throughput), "ratio")
	}
	if invalid != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run invalid: %s\n", w.name, invalid)
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
	}
	res.Correct = invalid == "" && res.Failed == 0
	return res, nil
}

// fingerprint describes the machine, toolchain and workload a result came
// from.
func fingerprint(w workload, o options) map[string]any {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"kernel":     kernelRelease(),
	}
	return map[string]any{
		"host":     host,
		"workload": w.name,
		"seed":     o.seed,
		"seconds":  o.seconds.Seconds(),
		"params":   w.params(o),
		"network":  "in-process loopback TCP (127.0.0.1); no real link",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// measureSetup runs setup reps times, tearing down all but the last, and
// returns the last environment with the median setup time in seconds.
func measureSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var env T
	if reps <= 0 {
		return env, 0, errors.New("setup: no repetitions")
	}
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			teardown(e)
		} else {
			env = e
		}
	}
	return env, median(times), nil
}
