package main

import (
	"sync"
	"time"

	"repro/internal/engine"
)

// traceStages are the engine pipeline stages reported per layer.
var traceStages = []string{
	engine.StageResolve,
	engine.StageSchedule,
	engine.StageScheduleDelta,
	engine.StageBuild,
	engine.StagePruneDelta,
	engine.StageEncode,
}

// recorder is the benchmark's engine.Probe. Untraced it only timestamps
// cycle assembly, which the simulator workload needs for wall-clock
// latency; traced it also keeps every stage execution and the cache and
// path counters.
type recorder struct {
	engine.NopProbe
	base  time.Time
	full  bool
	mu    sync.Mutex
	first int64 // earliest stage start since the last CycleDone; -1 if none

	// cycleStarts holds each assembled cycle's first stage start.
	cycleStarts []int64
	stages      map[string][]time.Duration
	spans       []span

	hits, misses              int64
	answerEvict, payloadEvict int64
	degraded                  int64
	pruneInc, pruneAll        int64
	schedInc, schedAll        int64
}

func newRecorder(base time.Time, full bool) *recorder {
	return &recorder{base: base, full: full, first: -1, stages: make(map[string][]time.Duration)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// StageDone implements engine.Probe.
func (r *recorder) StageDone(stage string, wall time.Duration, _, _ int) {
	end := r.now()
	start := end - int64(wall)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.first < 0 || start < r.first {
		r.first = start
	}
	if r.full {
		r.stages[stage] = append(r.stages[stage], wall)
		r.spans = append(r.spans, span{start, end})
	}
}

// CycleDone implements engine.Probe.
func (r *recorder) CycleDone() {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.first
	if start < 0 {
		start = now
	}
	r.cycleStarts = append(r.cycleStarts, start)
	r.first = -1
}

// CacheAccess implements engine.Probe.
func (r *recorder) CacheAccess(hit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if hit {
		r.hits++
	} else {
		r.misses++
	}
}

// CacheEvicted implements engine.Probe.
func (r *recorder) CacheEvicted(kind string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch kind {
	case engine.EvictAnswer:
		r.answerEvict += int64(n)
	case engine.EvictPayload:
		r.payloadEvict += int64(n)
	}
}

// PruneDone implements engine.Probe.
func (r *recorder) PruneDone(kind string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneAll++
	if kind == engine.PruneIncremental {
		r.pruneInc++
	}
}

// ScheduleDone implements engine.Probe.
func (r *recorder) ScheduleDone(kind string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.schedAll++
	if kind == engine.ScheduleIncremental {
		r.schedInc++
	}
}

// CycleDegraded implements engine.Probe.
func (r *recorder) CycleDegraded() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.degraded++
}

// takeCycleStarts returns and clears the cycle timestamps.
func (r *recorder) takeCycleStarts() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.cycleStarts
	r.cycleStarts = nil
	r.first = -1
	return out
}

// takeSpans returns and clears the stage intervals.
func (r *recorder) takeSpans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// report writes the engine layer's per-layer metrics.
func (r *recorder) report(m metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range traceStages {
		walls := r.stages[st]
		us := make([]float64, len(walls))
		var busy time.Duration
		for i, w := range walls {
			us[i] = float64(w) / float64(time.Microsecond)
			busy += w
		}
		m.set("engine."+st+".count", float64(len(walls)), "count")
		m.set("engine."+st+".busy_ms", float64(busy)/float64(time.Millisecond), "ms")
		m.set("engine."+st+".p50_us", percentile(us, 50), "us")
		m.set("engine."+st+".p99_us", percentile(us, 99), "us")
	}
	m.set("engine.answer_hit_ratio", ratio(float64(r.hits), float64(r.hits+r.misses)), "ratio")
	m.set("engine.prune_incremental_ratio", ratio(float64(r.pruneInc), float64(r.pruneAll)), "ratio")
	m.set("engine.schedule_incremental_ratio", ratio(float64(r.schedInc), float64(r.schedAll)), "ratio")
	m.set("engine.answer_evictions", float64(r.answerEvict), "count")
	m.set("engine.payload_evictions", float64(r.payloadEvict), "count")
	m.set("engine.degraded_cycles", float64(r.degraded), "count")
}
