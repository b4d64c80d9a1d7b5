package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/netcast"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

const (
	// openRate sits well below the knee: the pending set stays small and
	// ack latency flat, so a capacity loss shows in tail latency without a
	// capacity search.
	openRate    = 300.0 // requests per second
	openClients = 64    // logical clients on one mux uplink
	// writeEvery is the document write period: add a probe document,
	// remove the previous one.
	writeEvery = time.Second
	// lateBound is how far behind schedule (p99) the open-loop generator
	// may run before the run is marked invalid.
	lateBound   = 100 * time.Millisecond
	openSeedXo  = 0x09e9
	probeBaseID = 60000
	probeLabel  = "benchprobe"
	// Traced-pass sample bound for the transport replay.
	transportSamples = 300
)

// liveOpenTable2 is the operator's path under shared load: Table 2 queries
// arriving open-loop over one multiplexed uplink, a compressed downlink
// and a journal, with document writes beside the reads.
var liveOpenTable2 = workload{
	name: "live-open-table2",
	params: func(o options) map[string]any {
		return map[string]any{
			"docs": table2Docs, "text_scale": table2TextScale, "doc_seed": table2DocSeed,
			"pool": table2PoolSize, "pool_seed": table2PoolSeed, "P": table2P, "D_Q": table2DQ,
			"pool_rule":    "queries that would match a probe document are left out",
			"request_draw": "uniform over the pool",
			"loop":         fmt.Sprintf("open, %g requests/s from %d logical clients on one DialMux uplink", openRate*o.scale, openClients),
			"observer":     "netcast.Record on a second connection",
			"writes":       fmt.Sprintf("every %s add a probe document matching no pooled query, remove the previous one", writeEvery),
			"late_bound":   lateBound.String(),
			"mode":         "two-tier", "channels": 1, "index_encoding": "node", "compress": true,
			"journal": "temporary StateDir, no fsync", "cycle_capacity_bytes": cycleCapacity,
			"cycle_interval": liveCycleInterval.String(),
		}
	},
	run: runOpen,
}

// probeDoc is a one-element document no pooled query matches.
func probeDoc(k int) *xmldoc.Document {
	return xmldoc.NewDocument(xmldoc.DocID(probeBaseID+k), xmldoc.El(probeLabel))
}

type openEnv struct {
	ls     *liveServer
	coll   *xmldoc.Collection
	reqs   []xpath.Path
	ob     *observer
	cancel context.CancelFunc
	mux    *netcast.Mux
	lcs    []*netcast.LogicalClient
}

func (e *openEnv) close() {
	if e.mux != nil {
		e.mux.Close()
	}
	e.ls.close()
	if e.ob != nil {
		<-e.ob.done
	}
	e.cancel()
}

func openSetup(o options, base time.Time, probe engine.Probe, traced bool) (*openEnv, error) {
	coll, err := table2Collection()
	if err != nil {
		return nil, err
	}
	pool, err := queryPool(coll, table2DQ, false)
	if err != nil {
		return nil, err
	}
	// Every answer stays exactly checkable only if no request can match a
	// probe document; all probe documents share one shape.
	var kept []xpath.Path
	for _, q := range pool {
		if !q.MatchesDocument(probeDoc(0)) {
			kept = append(kept, q)
		}
	}
	n := scaled(o, int(openRate*o.seconds.Seconds()))
	reqs, err := gen.Requests(kept, gen.WorkloadConfig{NumRequests: n, Seed: o.seed ^ openSeedXo})
	if err != nil {
		return nil, err
	}
	ls, err := startServer(o, coll, true, true, probe)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &openEnv{ls: ls, coll: coll, reqs: reqs, cancel: cancel}
	samples := 0
	if traced {
		samples = transportSamples
	}
	if e.ob, err = observe(ctx, ls.srv, newAirLog(base, samples, 0), 1); err != nil {
		e.close()
		return nil, err
	}
	if e.mux, err = netcast.DialMux(ls.srv.UplinkAddr(), netcast.MuxConfig{Compress: true, AckTimeout: requestTimeout}); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < openClients; i++ {
		lc, err := e.mux.Open()
		if err != nil {
			e.close()
			return nil, err
		}
		e.lcs = append(e.lcs, lc)
	}
	return e, nil
}

// openReq is one open-loop request, times in ns since base.
type openReq struct {
	q              xpath.Path
	due, sent, ack int64
	covered        int64
	err            error
}

// openOutcome is one request's answer as observed on air.
type openOutcome struct {
	done                  int64 // arrival of the last answer document
	firstCycle, lastCycle int   // indexes into the air log's cycles
	access, tuning        int64
	deliveries            map[int64][]xmldoc.DocID // cycle number -> documents
}

func runOpen(o options, traced bool) (*pass, error) {
	base := time.Now()
	var rec *recorder
	var probe engine.Probe
	if traced {
		rec = newRecorder(base, true)
		probe = rec
	}
	env, setupS, err := measureSetup(o.setupReps, func() (*openEnv, error) { return openSetup(o, base, probe, traced) }, (*openEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	want := referenceAnswers(env.coll, env.reqs)
	if err := plantWrongAnswer(o, env.ls, env.coll); err != nil {
		return nil, err
	}
	srv := env.ls.srv
	if rec != nil {
		rec.takeSpans()
	}
	var ps *pendingSampler
	if traced {
		ps = samplePending(srv)
	}

	p := &pass{}
	reqs := make([]openReq, len(env.reqs))
	gap := time.Duration(float64(time.Second) / (openRate * o.scale))
	pm := startProcMeter()
	start := time.Now()
	t0 := int64(start.Sub(base))
	for i, q := range env.reqs {
		reqs[i] = openReq{q: q, due: t0 + int64(i)*int64(gap)}
	}
	var wg sync.WaitGroup
	for w, lc := range env.lcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(reqs); i += len(env.lcs) {
				r := &reqs[i]
				if d := time.Duration(r.due - int64(time.Since(base))); d > 0 {
					time.Sleep(d)
				}
				r.sent = int64(time.Since(base))
				r.err = lc.Submit(r.q)
				r.ack = int64(time.Since(base))
				r.covered = lc.CoveredFrom()
			}
		}()
	}
	writes, writeFails := writeLoop(srv, start, start.Add(time.Duration(len(reqs))*gap))
	wg.Wait()
	drained := waitFor(drainTimeout, func() bool { return srv.Pending() == 0 })
	usage := pm.finish()
	var pendingMax int
	if ps != nil {
		pendingMax = ps.finish()
	}
	stats := srv.Stats()
	// Closing the server ends the observer's recording.
	env.mux.Close()
	env.mux = nil
	env.ls.close()
	log := env.ob.log
	<-env.ob.done
	env.ob = nil
	if log.err != nil {
		return nil, fmt.Errorf("observer: %w", log.err)
	}

	p.attempted = int64(len(reqs) + writes)
	p.failed = int64(writeFails)
	if !drained {
		p.invalid = "the pending set did not drain"
	}
	var lat, late, ack, firstCycle, cyclesPerReq, access, tuning []float64
	var lastDone int64
	outs := make([]*openOutcome, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		late = append(late, float64(r.sent-r.due)/1e6)
		if r.err != nil {
			p.failed++
			continue
		}
		out, ok := observeAnswer(log, r.covered, r.due, want[r.q.String()], traced)
		if !ok {
			p.failed++
			continue
		}
		outs[i] = &out
		lastDone = max(lastDone, out.done)
		lat = append(lat, float64(out.done-r.due)/1e6)
		ack = append(ack, float64(r.ack-r.sent)/1e6)
		firstCycle = append(firstCycle, float64(log.cycles[out.firstCycle].headAt-r.ack)/1e6)
		cyclesPerReq = append(cyclesPerReq, float64(out.lastCycle-out.firstCycle+1))
		access = append(access, float64(out.access))
		tuning = append(tuning, float64(out.tuning))
	}
	if lp99 := percentile(late, 99); lp99 > float64(lateBound)/1e6 && p.invalid == "" {
		p.invalid = fmt.Sprintf("open-loop generator ran %.1f ms late at p99 (bound %s)", lp99, lateBound)
	}
	n := float64(len(lat))
	window := float64(lastDone-t0) / 1e9
	p.throughput = n / window
	cycles := float64(len(log.cycles))
	if !traced {
		p.e2e = endToEnd{
			setupS:     setupS,
			p50:        windowedPercentile(lat, 50),
			p99:        windowedPercentile(lat, 99),
			throughput: p.throughput,
			cpuReq:     msOf(usage.cpu) / n,
			cpuCycle:   msOf(usage.cpu) / cycles,
			access:     mean(access),
			tuning:     mean(tuning),
			heapMB:     usage.peakLiveMB,
		}.metrics(p)
		return p, nil
	}
	m := newLayerMetrics()
	rec.report(m)
	setProc(m, usage, len(lat))
	setNetcast(m, ack, firstCycle, mean(cyclesPerReq), cycles/window, pendingMax, log, stats)
	m.set("loadgen.late_ms.p99", percentile(late, 99), "ms")
	replayTransport(m, log.samples)
	if err := replayJournal(m, log, reqs, outs); err != nil {
		return nil, err
	}
	p.layer = m
	return p, nil
}

// writeLoop adds a probe document every writeEvery until end, removing the
// previous one, and returns how many writes it made and how many failed.
func writeLoop(srv *netcast.Server, start, end time.Time) (writes, fails int) {
	for k := 0; ; k++ {
		at := start.Add(time.Duration(k+1) * writeEvery)
		if !at.Before(end) {
			return writes, fails
		}
		time.Sleep(time.Until(at))
		writes++
		if err := srv.AddDocument(probeDoc(k)); err != nil {
			fails++
		}
		if k > 0 {
			writes++
			if err := srv.RemoveDocument(probeDoc(k - 1).ID); err != nil {
				fails++
			}
		}
	}
}

// observeAnswer finds a request's answer on air: each document's first
// airing in or after the covered cycle. It fails if any document never
// aired there.
func observeAnswer(log *airLog, covered, due int64, docs []xmldoc.DocID, keepDeliveries bool) (openOutcome, bool) {
	first, ok := log.byNumber[covered]
	if !ok || len(docs) == 0 {
		return openOutcome{}, false
	}
	out := openOutcome{firstCycle: first, lastCycle: first}
	if keepDeliveries {
		out.deliveries = make(map[int64][]xmldoc.DocID)
	}
	var lastEnd, docBytes int64
	for _, d := range docs {
		ar, ok := log.firstAiring(d, covered)
		if !ok {
			return openOutcome{}, false
		}
		out.done = max(out.done, ar.at)
		lastEnd = max(lastEnd, ar.end)
		out.lastCycle = max(out.lastCycle, ar.cycle)
		docBytes += ar.size
		if keepDeliveries {
			num := log.cycles[ar.cycle].number
			out.deliveries[num] = append(out.deliveries[num], d)
		}
	}
	var indexBytes int64
	for c := first; c <= out.lastCycle; c++ {
		indexBytes += log.cycles[c].indexBytes
	}
	out.access = lastEnd - log.offsetAt(due)
	out.tuning = indexBytes + docBytes
	return out, true
}

// sortByAck orders the answered requests by ack time, the order in which
// the server assigned their IDs.
func sortByAck(reqs []openReq, outs []*openOutcome) []int {
	var idx []int
	for i := range reqs {
		if outs[i] != nil {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return reqs[idx[a]].ack < reqs[idx[b]].ack })
	return idx
}
