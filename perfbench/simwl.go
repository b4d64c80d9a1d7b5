package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/broadcast"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

const (
	simRequests      = 20_000
	simArrivalGap    = 100 // mean bytes between Poisson arrivals (Table 2 spacing)
	simArrivalSeedXo = 0x5eed
)

// simTable2 is the reconstructed Table 2 run through the simulator: exact
// byte metrics, and wall time dominated by cycle assembly and the
// simulated clients' index navigation over a large pending set.
var simTable2 = workload{
	name: "sim-table2",
	params: func(o options) map[string]any {
		return map[string]any{
			"docs": table2Docs, "text_scale": table2TextScale, "doc_seed": table2DocSeed,
			"pool": table2PoolSize, "pool_seed": table2PoolSeed, "P": table2P, "D_Q": table2DQ,
			"requests": scaled(o, simRequests), "request_draw": "uniform over the pool",
			"arrivals":  fmt.Sprintf("Poisson, mean gap %d bytes", simArrivalGap),
			"scheduler": "leelo", "mode": "two-tier", "channels": 1, "index_encoding": "node",
			"cycle_capacity_bytes": cycleCapacity, "compress": false, "network": "none (simulation)",
		}
	},
	run: runSim,
}

type simInputs struct {
	coll *xmldoc.Collection
	reqs []sim.ClientRequest
}

func simSetup(o options) (*simInputs, error) {
	coll, err := table2Collection()
	if err != nil {
		return nil, err
	}
	pool, err := queryPool(coll, table2DQ, false)
	if err != nil {
		return nil, err
	}
	n := scaled(o, simRequests)
	qs, err := gen.Requests(pool, gen.WorkloadConfig{NumRequests: n, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	arr, err := gen.PoissonArrivals(n, simArrivalGap, o.seed^simArrivalSeedXo)
	if err != nil {
		return nil, err
	}
	reqs := make([]sim.ClientRequest, n)
	for i := range reqs {
		reqs[i] = sim.ClientRequest{Query: qs[i], Arrival: arr[i]}
	}
	return &simInputs{coll: coll, reqs: reqs}, nil
}

// simBytes are the exact byte metrics of one run; they must repeat.
type simBytes struct {
	cycles                             int
	cycleBytes, indexBytes             int64
	access, idxTuning, docTuning, reqs int64
}

// simRep is one sim.Run of the workload.
type simRep struct {
	wall, cpu    time.Duration
	lat          []float64 // ms
	bytes        simBytes
	engine, self int64 // ns
}

func runSim(o options, traced bool) (*pass, error) {
	in, setupS, err := measureSetup(o.setupReps, func() (*simInputs, error) { return simSetup(o) }, func(*simInputs) {})
	if err != nil {
		return nil, err
	}
	queries := make([]xpath.Path, len(in.reqs))
	for i, r := range in.reqs {
		queries[i] = r.Query
	}
	want := referenceAnswers(in.coll, queries)
	coll := in.coll
	if o.wrongAnswer {
		if coll, err = withoutDoc(in.coll, in.coll.Docs()[0].ID); err != nil {
			return nil, err
		}
	}
	cfg := sim.Config{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: cycleCapacity,
		Requests:      in.reqs,
		Scheduler:     scheduler(o),
	}
	rec := newRecorder(time.Now(), traced)
	cfg.Probe = rec
	p := &pass{}
	var reps []simRep
	pm := startProcMeter()
	deadline := time.Now().Add(o.seconds)
	for len(reps) == 0 || time.Now().Before(deadline) {
		rec.takeCycleStarts()
		rec.takeSpans()
		start, cpu0 := rec.now(), cpuTime()
		res, err := sim.Run(cfg)
		end, cpu := rec.now(), cpuTime()-cpu0
		if err != nil {
			return nil, err
		}
		rep := simRep{wall: time.Duration(end - start), cpu: cpu}
		starts := rec.takeCycleStarts()
		if len(starts) != len(res.Cycles) {
			return nil, fmt.Errorf("probe saw %d cycles, run reported %d", len(starts), len(res.Cycles))
		}
		starts = append(starts, end)
		cycStart := make([]int64, len(res.Cycles))
		for j, c := range res.Cycles {
			cycStart[j] = c.Start
			rep.bytes.cycleBytes += c.DurationBytes
			rep.bytes.indexBytes += int64(c.IndexBytes + c.SecondTierBytes)
		}
		rep.bytes.cycles = len(res.Cycles)
		p.attempted += int64(len(in.reqs))
		for i, c := range res.Clients {
			if c.AccessBytes <= 0 || !sameDocs(c.Docs, want[in.reqs[i].Query.String()]) {
				p.failed++
				continue
			}
			rep.bytes.reqs++
			rep.bytes.access += c.AccessBytes
			rep.bytes.idxTuning += c.IndexTuningBytes
			rep.bytes.docTuning += c.DocTuningBytes
			// The request is covered by the first cycle starting at or
			// after its arrival and completes in the last cycle starting
			// before its final byte; its wall-clock latency runs from the
			// covering cycle's assembly start to the completing cycle's
			// end (the next cycle's assembly start, or the end of the run).
			a := sort.Search(len(cycStart), func(j int) bool { return cycStart[j] >= c.Arrival })
			if a == len(cycStart) {
				p.failed++
				continue
			}
			k := max(a, sort.Search(len(cycStart), func(j int) bool { return cycStart[j] >= c.Completed })-1)
			rep.lat = append(rep.lat, float64(starts[k+1]-starts[a])/float64(time.Millisecond))
		}
		if len(reps) > 0 && rep.bytes != reps[0].bytes {
			// Byte metrics are a pure function of the inputs: a run
			// that does not repeat them has no trustworthy answer.
			p.failed += int64(len(in.reqs))
		}
		if traced {
			run := span{start, end}
			spans := rec.takeSpans()
			rep.engine = covered(run, spans)
			rep.self = selfTime(run, spans)
		}
		reps = append(reps, rep)
	}
	usage := pm.finish()

	var thr, p50, p99, cpuReq, cpuCyc, wall, eng, self []float64
	for _, r := range reps {
		n := float64(len(in.reqs))
		thr = append(thr, n/r.wall.Seconds())
		p50 = append(p50, percentile(r.lat, 50))
		p99 = append(p99, percentile(r.lat, 99))
		cpuReq = append(cpuReq, msOf(r.cpu)/n)
		cpuCyc = append(cpuCyc, msOf(r.cpu)/float64(r.bytes.cycles))
		wall = append(wall, r.wall.Seconds())
		eng = append(eng, float64(r.engine)/1e9)
		self = append(self, float64(r.self)/1e9)
	}
	b := reps[0].bytes
	nreq := float64(b.reqs)
	p.throughput = median(thr)
	if !traced {
		p.e2e = endToEnd{
			setupS:     setupS,
			p50:        median(p50),
			p99:        median(p99),
			throughput: p.throughput,
			cpuReq:     median(cpuReq),
			cpuCycle:   median(cpuCyc),
			access:     float64(b.access) / nreq,
			tuning:     float64(b.idxTuning+b.docTuning) / nreq,
			heapMB:     usage.peakLiveMB,
		}.metrics(p)
		return p, nil
	}
	m := newLayerMetrics()
	m.set("sim.run_s", median(wall), "s")
	m.set("sim.engine_s", median(eng), "s")
	m.set("sim.client_s", median(self), "s")
	m.set("sim.cycles", float64(b.cycles), "count")
	m.set("sim.cycle_bytes_mean", float64(b.cycleBytes)/float64(b.cycles), "bytes")
	m.set("sim.index_bytes_mean", float64(b.indexBytes)/float64(b.cycles), "bytes")
	m.set("sim.index_tuning_bytes_mean", float64(b.idxTuning)/nreq, "bytes")
	m.set("sim.doc_tuning_bytes_mean", float64(b.docTuning)/nreq, "bytes")
	rec.report(m)
	setProc(m, usage, len(in.reqs)*len(reps))
	p.layer = m
	return p, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
