package exp

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"math/rand"
	"sort"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/engine"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/succinct"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// EngineBenchResult is the JSON report of the assembly-engine benchmark: the
// serial-vs-parallel timings of the two sharded pipeline stages (document
// matching, DataGuide merging) and the per-stage telemetry of one full
// simulation driven through the engine. Written by cmd/bcast-exp
// -bench-engine as BENCH_engine.json.
type EngineBenchResult struct {
	// GOMAXPROCS and Workers record the parallelism the numbers were
	// measured at; speedups are only meaningful with several real cores.
	GOMAXPROCS int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	NumDocs    int `json:"num_docs"`
	NumQueries int `json:"num_queries"`

	// FilterSerialNS / FilterParallelNS time one full matching pass of the
	// query set over the collection (best of Rounds), serially and sharded.
	FilterSerialNS   int64   `json:"filter_serial_ns"`
	FilterParallelNS int64   `json:"filter_parallel_ns"`
	FilterSpeedup    float64 `json:"filter_speedup"`

	// MergeSerialNS times the merged-DataGuide build.
	MergeSerialNS int64 `json:"merge_serial_ns"`

	// PruneFullNS / PruneIncrementalNS time one PCI re-prune under ≈5%
	// query churn: from scratch versus a warm PrunedView applying the delta.
	PruneFullNS        int64   `json:"prune_full_ns"`
	PruneIncrementalNS int64   `json:"prune_incremental_ns"`
	PruneSpeedup       float64 `json:"prune_speedup"`

	// ScheduleFullNS / ScheduleIncrementalNS time one LeeLo cycle plan over
	// a 10k pending set under ≈5% churn: the reference per-cycle replan
	// versus delta maintenance of a persistent schedule.DemandIndex.
	ScheduleFullNS        int64   `json:"schedule_full_ns"`
	ScheduleIncrementalNS int64   `json:"schedule_incremental_ns"`
	ScheduleSpeedup       float64 `json:"schedule_speedup"`

	// Cycles and Engine come from a full two-tier simulation of the
	// workload: per-stage wall time and sizes, cache hit rate, cycle count.
	// This simulation is always single-channel (K=1) so the stage-mean
	// baselines stay comparable across benchmark runs.
	Cycles int            `json:"cycles"`
	Engine engine.Metrics `json:"engine"`

	// Multichannel compares a K=4 run against the K=1 baseline at fixed
	// aggregate bandwidth, with per-channel means.
	Multichannel *MultichannelBench `json:"multichannel"`

	// Succinct compares the balanced-parentheses first-tier encoding against
	// the node-pointer stream on the same two-tier workload.
	Succinct *SuccinctBench `json:"succinct"`

	// Transport compares the per-frame DEFLATE transport against the bare
	// wire: frame-type compression ratios, codec timings, mux fan-in
	// throughput and the compressed simulation leg.
	Transport *TransportBench `json:"transport"`
}

// ChannelBenchMetrics is one channel's mean per-cycle load in the
// multichannel benchmark run. Channel 0 is the index channel: its bytes are
// the repetition unit ([head][directory][first tier], hot documents
// excluded), not the K × heavier air-time it fills by replaying it.
type ChannelBenchMetrics struct {
	Channel   int     `json:"channel"`
	Role      string  `json:"role"`
	MeanBytes float64 `json:"mean_bytes_per_cycle"`
}

// MultichannelBench reports the multichannel access-time comparison: the same
// workload simulated at K=1 and K=4 with identical aggregate bandwidth (a
// K-channel byte costs K byte-ticks of air time). The fixture is the regime
// the channel plan targets — saturated steady state, large documents, skewed
// single-document queries — where mid-cycle index repetitions let waiting
// clients sync early and catch the hot prefix (see
// sim.TestMultichannelReducesAccessTime for the pinned invariant).
type MultichannelBench struct {
	Channels             int                   `json:"channels"`
	Clients              int                   `json:"clients"`
	MeanAccessBytesK1    float64               `json:"mean_access_bytes_k1"`
	MeanAccessBytesK     float64               `json:"mean_access_bytes_k"`
	AccessReductionPct   float64               `json:"access_reduction_pct"`
	MeanCycleBytesK1     float64               `json:"mean_cycle_bytes_k1"`
	MeanCycleBytesK      float64               `json:"mean_cycle_bytes_k"`
	MeanIndexRepetitions float64               `json:"mean_index_repetitions"`
	EavesdropClients     int                   `json:"eavesdrop_clients"`
	PerChannel           []ChannelBenchMetrics `json:"per_channel"`
}

// SuccinctBench reports the succinct first-tier comparison: the Table 2
// workload simulated two-tier at K=1 under the node-pointer stream and under
// the balanced-parentheses encoding, plus one-shot encode timings of the
// whole query set's pruned CI in each layout. Byte counts are deterministic
// for a fixed workload; the encode timings vary by machine like every other
// *_ns field.
type SuccinctBench struct {
	// FirstTierBytesNode / FirstTierBytesSuccinct are the exact stream bytes
	// of the full pruned CI under each encoding, before packet alignment.
	FirstTierBytesNode     int     `json:"first_tier_bytes_node"`
	FirstTierBytesSuccinct int     `json:"first_tier_bytes_succinct"`
	FirstTierReductionPct  float64 `json:"first_tier_reduction_pct"`
	// MeanIndexBytes* are the per-cycle on-air index segment means (packet
	// aligned) of the two simulation legs.
	MeanIndexBytesNode     float64 `json:"mean_index_bytes_node"`
	MeanIndexBytesSuccinct float64 `json:"mean_index_bytes_succinct"`
	// MeanIndexTuningBytes* are the client-side index tuning means of the two
	// legs; TuningReductionPct is the succinct leg's improvement.
	MeanIndexTuningBytesNode     float64 `json:"mean_index_tuning_bytes_node"`
	MeanIndexTuningBytesSuccinct float64 `json:"mean_index_tuning_bytes_succinct"`
	TuningReductionPct           float64 `json:"tuning_reduction_pct"`
	// EncodeNodeNS / EncodeSuccinctNS time one encoding pass of the pruned CI
	// into a reused buffer (best of rounds).
	EncodeNodeNS     int64 `json:"encode_node_ns"`
	EncodeSuccinctNS int64 `json:"encode_succinct_ns"`
}

// engineBenchRounds is how many timed repetitions each measurement takes;
// the best (minimum) round is reported, the usual benchmarking guard against
// scheduler noise.
const engineBenchRounds = 5

// RunEngineBench measures the engine's concurrent stages on the configured
// workload (defaults: the reconstructed Table 2 setup).
func RunEngineBench(cfg Config) (*EngineBenchResult, error) {
	cfg = cfg.withDefaults()
	coll, err := cfg.documents()
	if err != nil {
		return nil, err
	}
	queries, err := cfg.queries(coll, cfg.NQ, cfg.P, cfg.DQ)
	if err != nil {
		return nil, err
	}
	sched, err := cfg.scheduler()
	if err != nil {
		return nil, err
	}

	res := &EngineBenchResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    runtime.GOMAXPROCS(0),
		NumDocs:    coll.Len(),
		NumQueries: len(queries),
	}

	// Matching: one warm-up pass fills the shared lazy-DFA memo, so both
	// variants measure matching, not automaton construction.
	f := yfilter.New(queries)
	f.Filter(coll)
	res.FilterSerialNS = bestOf(engineBenchRounds, func() { f.Filter(coll) })
	res.FilterParallelNS = bestOf(engineBenchRounds, func() { f.FilterParallel(coll, res.Workers) })
	res.FilterSpeedup = speedup(res.FilterSerialNS, res.FilterParallelNS)

	res.MergeSerialNS = bestOf(engineBenchRounds, func() { dataguide.Merge(coll) })

	// Re-pruning under drift: a query pool slightly larger than the active
	// set provides a sliding window where consecutive cycles swap k queries
	// (≈5% churn). The incremental side applies each delta to a warm view;
	// the full side re-prunes the same windows from scratch.
	k := len(queries) / 20
	if k < 1 {
		k = 1
	}
	pool, err := cfg.queries(coll, len(queries)+4*k, cfg.P, cfg.DQ)
	if err != nil {
		return nil, err
	}
	window := func(i int) []xpath.Path {
		off := (i * k) % (4 * k)
		return pool[off : off+len(queries)]
	}
	ci, err := core.BuildCI(coll, cfg.Model)
	if err != nil {
		return nil, err
	}
	round := 0
	res.PruneFullNS = bestOf(engineBenchRounds, func() {
		round++
		if _, _, err := ci.Prune(window(round)); err != nil {
			panic(err)
		}
	})
	view := core.NewPrunedView(0)
	if _, _, err := view.Update(ci, window(0)); err != nil {
		return nil, err
	}
	round = 0
	res.PruneIncrementalNS = bestOf(engineBenchRounds, func() {
		round++
		if _, _, err := view.Update(ci, window(round)); err != nil {
			panic(err)
		}
	})
	res.PruneSpeedup = speedup(res.PruneFullNS, res.PruneIncrementalNS)

	benchScheduleChurn(res)

	out, err := sim.Run(sim.Config{
		Collection:    coll,
		Model:         cfg.Model,
		Mode:          broadcast.TwoTierMode,
		Scheduler:     sched,
		CycleCapacity: cfg.CycleCapacity,
		Requests:      cfg.requests(queries),
		Limits:        cfg.Limits,
	})
	if err != nil {
		return nil, err
	}
	res.Cycles = len(out.Cycles)
	res.Engine = out.Engine

	if err := benchSuccinct(cfg, coll, queries, out, res); err != nil {
		return nil, err
	}
	if err := benchMultichannel(res); err != nil {
		return nil, err
	}
	if err := benchTransport(cfg, coll, queries, out, res); err != nil {
		return nil, err
	}
	return res, nil
}

// benchSuccinct fills the Succinct section. The node leg is the main
// benchmark simulation (two-tier, K=1, node-pointer stream); the succinct leg
// reruns the identical workload with IndexEncoding set. The exact stream
// sizes and encode timings come from one pruning of the whole query set over
// the collection's CI — the same index every steady-state cycle broadcasts.
func benchSuccinct(cfg Config, coll *xmldoc.Collection, queries []xpath.Path, nodeRun *sim.Result, res *EngineBenchResult) error {
	ci, err := core.BuildCI(coll, cfg.Model)
	if err != nil {
		return err
	}
	pci, _, err := ci.Prune(queries)
	if err != nil {
		return err
	}
	cat := wire.BuildCatalog(pci)
	packing := pci.Pack(core.FirstTier)
	sz, err := succinct.TierSize(pci, cat.Len(), cfg.Model)
	if err != nil {
		return fmt.Errorf("exp: succinct bench size: %w", err)
	}
	sb := &SuccinctBench{
		FirstTierBytesNode:     packing.StreamBytes,
		FirstTierBytesSuccinct: sz,
	}
	if sb.FirstTierBytesNode > 0 {
		sb.FirstTierReductionPct = 100 * (1 - float64(sb.FirstTierBytesSuccinct)/float64(sb.FirstTierBytesNode))
	}

	// A single encode is a few microseconds — far below timer and scheduler
	// noise — so each timed round batches many and reports the per-encode
	// mean of the best round.
	const encodeBatch = 64
	buf := make([]byte, 0, packing.StreamBytes)
	sb.EncodeNodeNS = bestOf(engineBenchRounds, func() {
		for i := 0; i < encodeBatch; i++ {
			if _, err := wire.AppendIndex(buf[:0], pci, packing, cat, nil); err != nil {
				panic(err)
			}
		}
	}) / encodeBatch
	sb.EncodeSuccinctNS = bestOf(engineBenchRounds, func() {
		for i := 0; i < encodeBatch; i++ {
			if _, err := succinct.AppendTier(buf[:0], pci, cat, cfg.Model); err != nil {
				panic(err)
			}
		}
	}) / encodeBatch

	sched, err := cfg.scheduler()
	if err != nil {
		return err
	}
	succRun, err := sim.Run(sim.Config{
		Collection:    coll,
		Model:         cfg.Model,
		Mode:          broadcast.TwoTierMode,
		IndexEncoding: core.EncodingSuccinct,
		Scheduler:     sched,
		CycleCapacity: cfg.CycleCapacity,
		Requests:      cfg.requests(queries),
		Limits:        cfg.Limits,
	})
	if err != nil {
		return fmt.Errorf("exp: succinct bench run: %w", err)
	}
	sb.MeanIndexBytesNode = nodeRun.MeanIndexBytes()
	sb.MeanIndexBytesSuccinct = succRun.MeanIndexBytes()
	sb.MeanIndexTuningBytesNode = nodeRun.MeanIndexTuningBytes()
	sb.MeanIndexTuningBytesSuccinct = succRun.MeanIndexTuningBytes()
	if sb.MeanIndexTuningBytesNode > 0 {
		sb.TuningReductionPct = 100 * (1 - sb.MeanIndexTuningBytesSuccinct/sb.MeanIndexTuningBytesNode)
	}
	res.Succinct = sb
	return nil
}

// benchMultichannelK is the channel count the multichannel comparison runs
// at; the K=1 leg of the same workload is the baseline.
const benchMultichannelK = 4

// benchMultichannel fills the Multichannel section: one workload simulated at
// K=1 and K=4 under the same aggregate bandwidth. The fixture mirrors the
// pinned sim regression (80 single-result documents of ~1.6 KB, Zipf-skewed
// requests, cycle capacity = the whole collection) rather than the Table 2
// setup: multichannel pays a guard prefix per channel every cycle, and only
// the saturated large-document regime has the slack for index repetitions to
// buy it back.
func benchMultichannel(res *EngineBenchResult) error {
	const (
		numDocs = 80
		pad     = 1600
		nreq    = 4000
		zipfS   = 1.6
		gap     = 40
		seed    = 3
	)
	docs := make([]*xmldoc.Document, numDocs)
	queries := make([]xpath.Path, numDocs)
	for i := 0; i < numDocs; i++ {
		a, b := fmt.Sprintf("r%d", i), fmt.Sprintf("s%d", i)
		leaf := &xmldoc.Node{Label: b, Text: strings.Repeat("x", pad)}
		root := &xmldoc.Node{Label: a, Children: []*xmldoc.Node{leaf}}
		docs[i] = xmldoc.NewDocument(xmldoc.DocID(i+1), root)
		queries[i] = xpath.MustParse("/" + a + "/" + b)
	}
	coll, err := xmldoc.NewCollection(docs)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, numDocs-1)
	reqs := make([]sim.ClientRequest, nreq)
	for i := range reqs {
		reqs[i] = sim.ClientRequest{Query: queries[z.Uint64()], Arrival: int64(i) * gap}
	}
	run := func(k int) (*sim.Result, error) {
		return sim.Run(sim.Config{
			Collection:    coll,
			Mode:          broadcast.TwoTierMode,
			CycleCapacity: coll.TotalSize(),
			Requests:      reqs,
			Channels:      k,
		})
	}
	serial, err := run(1)
	if err != nil {
		return fmt.Errorf("exp: multichannel bench K=1: %w", err)
	}
	multi, err := run(benchMultichannelK)
	if err != nil {
		return fmt.Errorf("exp: multichannel bench K=%d: %w", benchMultichannelK, err)
	}

	mb := &MultichannelBench{
		Channels:             benchMultichannelK,
		Clients:              len(reqs),
		MeanAccessBytesK1:    serial.MeanAccessBytes(),
		MeanAccessBytesK:     multi.MeanAccessBytes(),
		MeanCycleBytesK1:     serial.MeanCycleBytes(),
		MeanCycleBytesK:      multi.MeanCycleBytes(),
		MeanIndexRepetitions: multi.MeanIndexRepetitions(),
		EavesdropClients:     multi.EavesdropClients(),
	}
	if mb.MeanAccessBytesK1 > 0 {
		mb.AccessReductionPct = 100 * (1 - mb.MeanAccessBytesK/mb.MeanAccessBytesK1)
	}
	for ch, bytes := range multi.MeanChannelBytes() {
		role := broadcast.DataChannelRole
		if ch == 0 {
			role = broadcast.IndexChannelRole
		}
		mb.PerChannel = append(mb.PerChannel, ChannelBenchMetrics{
			Channel:   ch,
			Role:      role.String(),
			MeanBytes: bytes,
		})
	}
	res.Multichannel = mb
	return nil
}

// benchScheduleChurn fills the schedule_* fields: one LeeLo plan per round
// over a synthetic 10k pending set with sparse requester sharing (4000
// documents, 1–4 docs per request), swapping 5% of the requests before each
// plan. The fixture deliberately bypasses the collection — scheduling sees
// only (ID, Arrival, Docs, size), and the sparse regime is where the demand
// index pays off. Mirrors schedule.BenchmarkScheduleIncremental.
func benchScheduleChurn(res *EngineBenchResult) {
	const nDocs, nReqs, swap, capacity = 4000, 10_000, 500, 400_000
	r := rand.New(rand.NewSource(2))
	sizes := make([]int, nDocs)
	for d := range sizes {
		sizes[d] = 2000 + r.Intn(18000)
	}
	size := func(d xmldoc.DocID) int { return sizes[d] }
	randDocs := func() []xmldoc.DocID {
		n := 1 + r.Intn(4)
		seen := make(map[xmldoc.DocID]struct{}, n)
		docs := make([]xmldoc.DocID, 0, n)
		for len(docs) < n {
			d := xmldoc.DocID(r.Intn(nDocs))
			if _, ok := seen[d]; ok {
				continue
			}
			seen[d] = struct{}{}
			docs = append(docs, d)
		}
		sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
		return docs
	}
	mkPending := func() []schedule.Request {
		pending := make([]schedule.Request, nReqs)
		for i := range pending {
			pending[i] = schedule.Request{ID: int64(i), Arrival: int64(i / 16), Docs: randDocs()}
		}
		return pending
	}

	pending := mkPending()
	nextID := int64(len(pending))
	round := int64(0)
	res.ScheduleFullNS = bestOf(engineBenchRounds, func() {
		round++
		for k := 0; k < swap; k++ {
			pending = pending[1:]
			pending = append(pending, schedule.Request{ID: nextID, Arrival: round, Docs: randDocs()})
			nextID++
		}
		schedule.LeeLo{}.PlanCycle(pending, size, capacity, round)
	})

	pending = mkPending()
	x := schedule.NewDemandIndex()
	x.Rebuild(pending, size, res.Workers)
	nextID = int64(len(pending))
	round = 0
	res.ScheduleIncrementalNS = bestOf(engineBenchRounds, func() {
		round++
		for k := 0; k < swap; k++ {
			x.Remove(pending[0].ID)
			pending = pending[1:]
			nr := schedule.Request{ID: nextID, Arrival: round, Docs: randDocs()}
			nextID++
			pending = append(pending, nr)
			x.Apply(nr, size)
		}
		schedule.LeeLo{}.PlanIndexed(x, capacity, round)
	})
	res.ScheduleSpeedup = speedup(res.ScheduleFullNS, res.ScheduleIncrementalNS)
}

// bestOf returns the fastest of n timed runs, in nanoseconds.
func bestOf(n int, run func()) int64 {
	best := int64(0)
	for i := 0; i < n; i++ {
		start := time.Now()
		run()
		if d := time.Since(start).Nanoseconds(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// speedup is serial/parallel, guarding the degenerate zero measurement.
func speedup(serial, parallel int64) float64 {
	if parallel <= 0 {
		return 0
	}
	return float64(serial) / float64(parallel)
}

// BuildStageMeanNS is the mean wall time of one engine build stage (PCI
// pruning, packing, cycle layout) across the benchmark's simulation, or 0
// when no cycle ran.
func (r *EngineBenchResult) BuildStageMeanNS() float64 {
	s, ok := r.Engine.Stages[engine.StageBuild]
	if !ok || s.Count == 0 {
		return 0
	}
	return float64(s.Wall.Nanoseconds()) / float64(s.Count)
}

// ScheduleStageMeanNS is the mean wall time of one engine schedule stage
// (cycle planning, delta maintenance included) across the benchmark's
// simulation, or 0 when no cycle ran.
func (r *EngineBenchResult) ScheduleStageMeanNS() float64 {
	s, ok := r.Engine.Stages[engine.StageSchedule]
	if !ok || s.Count == 0 {
		return 0
	}
	return float64(s.Wall.Nanoseconds()) / float64(s.Count)
}

// CompareEngineBench gates a fresh benchmark against a recorded baseline: it
// returns an error when the current build-stage or schedule-stage mean
// regresses by more than tolerance (a fraction; 0.25 = 25% slower). The
// summary string reports the means and ratios either way; the schedule gate
// only engages when the baseline recorded schedule samples, so old baselines
// keep comparing. Absolute nanoseconds vary across machines, so the
// comparison is only meaningful against a baseline recorded on comparable
// hardware (in CI: the same runner class).
func CompareEngineBench(baseline, current *EngineBenchResult, tolerance float64) (string, error) {
	type gate struct {
		name      string
		base, cur float64
	}
	gates := []gate{{"build-stage", baseline.BuildStageMeanNS(), current.BuildStageMeanNS()}}
	if baseline.ScheduleStageMeanNS() > 0 {
		gates = append(gates, gate{"schedule-stage", baseline.ScheduleStageMeanNS(), current.ScheduleStageMeanNS()})
	}
	// Succinct gates engage only when the baseline recorded the section, so
	// older baselines keep comparing. Encode time is a wall-clock gate like
	// the stage means; the byte gates are deterministic for a fixed workload
	// and catch the encoding itself bloating.
	if b, c := baseline.Succinct, current.Succinct; b != nil && c != nil {
		gates = append(gates,
			gate{"succinct-encode", float64(b.EncodeSuccinctNS), float64(c.EncodeSuccinctNS)},
			gate{"succinct-tier-bytes", float64(b.FirstTierBytesSuccinct), float64(c.FirstTierBytesSuccinct)},
			gate{"succinct-tuning-bytes", b.MeanIndexTuningBytesSuccinct, c.MeanIndexTuningBytesSuccinct},
		)
	}
	// Transport gates, same conditional-engagement rule. Encode and decode
	// are wall-clock gates; the compressed cycle length is deterministic for
	// a fixed workload and catches the codec or the framing bloating the
	// air. (Ratios are near-constant, so the byte gate covers them.)
	if b, c := baseline.Transport, current.Transport; b != nil && c != nil {
		gates = append(gates,
			gate{"transport-encode", float64(b.EncodeFrameNS), float64(c.EncodeFrameNS)},
			gate{"transport-decode", float64(b.DecodeFrameNS), float64(c.DecodeFrameNS)},
			gate{"transport-cycle-bytes", b.MeanCycleBytesCompressed, c.MeanCycleBytesCompressed},
		)
	}
	var summary string
	var firstErr error
	for i, g := range gates {
		if g.base <= 0 || g.cur <= 0 {
			return summary, fmt.Errorf("exp: benchmark comparison needs %s samples in both results (baseline %.0f ns, current %.0f ns)", g.name, g.base, g.cur)
		}
		ratio := g.cur / g.base
		if i > 0 {
			summary += "; "
		}
		summary += fmt.Sprintf("%s mean %.0f ns vs baseline %.0f ns (%.2fx)", g.name, g.cur, g.base, ratio)
		if ratio > 1+tolerance && firstErr == nil {
			firstErr = fmt.Errorf("exp: %s mean regressed %.0f%% (limit %.0f%%)", g.name, 100*(ratio-1), 100*tolerance)
		}
	}
	if firstErr != nil {
		return summary, fmt.Errorf("%w: %s", firstErr, summary)
	}
	return summary, nil
}
