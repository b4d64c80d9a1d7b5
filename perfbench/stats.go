package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// latencyWindow is the fewest samples a latency window holds, so that its
// p99 has ten samples beyond it.
const latencyWindow = 1000

// windowedPercentile splits xs, in arrival order, into consecutive windows
// of at least latencyWindow samples and returns the median over windows of
// each window's p-th percentile, so that a stall of the host during one
// window moves only that window's value.
func windowedPercentile(xs []float64, p float64) float64 {
	k := len(xs) / latencyWindow
	if k <= 1 {
		return percentile(xs, p)
	}
	per := make([]float64, k)
	for i := range per {
		per[i] = percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], p)
	}
	return median(per)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// span is a closed-open time interval in nanoseconds on one clock.
type span struct{ start, end int64 }

// covered returns the total length of the union of spans clipped to
// [within.start, within.end): overlapping and nested spans count once.
func covered(within span, spans []span) int64 {
	clipped := make([]span, 0, len(spans))
	for _, s := range spans {
		if s.start < within.start {
			s.start = within.start
		}
		if s.end > within.end {
			s.end = within.end
		}
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur span
	for i, s := range clipped {
		if i == 0 || s.start > cur.end {
			total += cur.end - cur.start
			cur = s
			continue
		}
		if s.end > cur.end {
			cur.end = s.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a parent span's duration minus the part of it that its child
// spans cover.
func selfTime(parent span, children []span) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procMeter measures one measurement window of the whole process: CPU time,
// allocation, GC CPU share and the peak live heap, sampled in the
// background.
type procMeter struct {
	cpu0            time.Duration
	alloc0          uint64
	gcCPU0, allCPU0 float64

	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64 // written by the sampler until finish waits for it
}

// procSample names the runtime/metrics the meter reads.
var procSample = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(procSample))
	for i, name := range procSample {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return s
}

func sampleUint(s rtmetrics.Sample) uint64 {
	if s.Value.Kind() == rtmetrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func sampleFloat(s rtmetrics.Sample) float64 {
	if s.Value.Kind() == rtmetrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// startProcMeter collects garbage left by set-up, then starts the window.
func startProcMeter() *procMeter {
	runtime.GC()
	s := readProc()
	m := &procMeter{
		cpu0:    cpuTime(),
		alloc0:  sampleUint(s[1]),
		gcCPU0:  sampleFloat(s[2]),
		allCPU0: sampleFloat(s[3]),
		peak:    sampleUint(s[0]),
		stop:    make(chan struct{}),
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if live := sampleUint(readProc()[0]); live > m.peak {
					m.peak = live
				}
			}
		}
	}()
	return m
}

// procUsage is what one window cost the process.
type procUsage struct {
	cpu        time.Duration
	allocBytes uint64
	gcCPURatio float64
	peakLiveMB float64
}

// finish stops the sampler and returns the window's usage.
func (m *procMeter) finish() procUsage {
	close(m.stop)
	m.wg.Wait()
	s := readProc()
	u := procUsage{
		cpu:        cpuTime() - m.cpu0,
		allocBytes: sampleUint(s[1]) - m.alloc0,
		gcCPURatio: ratio(sampleFloat(s[2])-m.gcCPU0, sampleFloat(s[3])-m.allCPU0),
	}
	peak := m.peak
	if live := sampleUint(s[0]); live > peak {
		peak = live
	}
	u.peakLiveMB = float64(peak) / (1 << 20)
	return u
}

// setProc records the process-level per-layer metrics of a window.
func setProc(m metrics, u procUsage, requests int) {
	m.set("proc.alloc_mb_per_req", float64(u.allocBytes)/(1<<20)/float64(requests), "MB")
	m.set("proc.gc_cpu_ratio", u.gcCPURatio, "ratio")
}
