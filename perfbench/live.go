package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netcast"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

const (
	// liveCycleInterval is short enough that cycle assembly, not the
	// server's ticker, sets the cycle rate.
	liveCycleInterval = time.Millisecond
	// requestTimeout bounds one retrieval; a request still unanswered then
	// counts as failed.
	requestTimeout = 10 * time.Second
	// drainTimeout bounds the wait for the pending set to empty after the
	// last request, and for the observer to stop.
	drainTimeout = 30 * time.Second
)

// liveServer is one in-process broadcast server on loopback plus what
// tearing it down needs.
type liveServer struct {
	srv      *netcast.Server
	stateDir string
}

// startServer starts the two-tier, K=1, node-encoded server both live
// workloads use. With journal set, it journals into a fresh temporary
// directory (default no-fsync).
func startServer(o options, coll *xmldoc.Collection, compress, journal bool, probe engine.Probe) (*liveServer, error) {
	ls := &liveServer{}
	if journal {
		dir, err := os.MkdirTemp("", "perfbench-state-")
		if err != nil {
			return nil, err
		}
		ls.stateDir = dir
	}
	srv, err := netcast.StartServer(netcast.ServerConfig{
		Collection:    coll,
		CycleCapacity: cycleCapacity,
		CycleInterval: liveCycleInterval,
		Compress:      compress,
		StateDir:      ls.stateDir,
		Probe:         probe,
		Scheduler:     scheduler(o),
	})
	if err != nil {
		ls.close()
		return nil, err
	}
	ls.srv = srv
	return ls, nil
}

// close shuts the server down and removes its state directory.
func (ls *liveServer) close() {
	if ls.srv != nil {
		ls.srv.Shutdown()
	}
	if ls.stateDir != "" {
		_ = os.RemoveAll(ls.stateDir)
	}
}

// plantWrongAnswer removes one document from the running server while the
// checker keeps it, so every request whose answer holds it goes wrong.
func plantWrongAnswer(o options, ls *liveServer, coll *xmldoc.Collection) error {
	if !o.wrongAnswer {
		return nil
	}
	return ls.srv.RemoveDocument(coll.Docs()[0].ID)
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// observer records the downlink into an airLog on its own connection.
type observer struct {
	log  *airLog
	done chan struct{} // closed when the recording ends
}

// observe subscribes an observer and waits until the server counts it, so
// it sees every cycle from the first request on.
func observe(ctx context.Context, srv *netcast.Server, log *airLog, subscribers int) (*observer, error) {
	ob := &observer{log: log, done: make(chan struct{})}
	go func() {
		defer close(ob.done)
		// Record ends with a read error when the server shuts down; the
		// log holds everything that arrived before.
		_, _ = netcast.Record(ctx, srv.BroadcastAddr(), 1<<30, log)
	}()
	if !waitFor(drainTimeout, func() bool { return srv.Stats().Subscribers >= subscribers }) {
		return nil, fmt.Errorf("observer did not subscribe")
	}
	return ob, nil
}

// pendingSampler tracks the server's peak pending-set size.
type pendingSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  int
}

func samplePending(srv *netcast.Server) *pendingSampler {
	ps := &pendingSampler{stop: make(chan struct{})}
	ps.wg.Add(1)
	go func() {
		defer ps.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ps.stop:
				return
			case <-tick.C:
				if n := srv.Pending(); n > ps.max {
					ps.max = n
				}
			}
		}
	}()
	return ps
}

func (ps *pendingSampler) finish() int {
	close(ps.stop)
	ps.wg.Wait()
	return ps.max
}

const (
	closedDeck   = 1000
	closedZipfS  = 1.2
	closedSeedXo = 0xc105ed
	// Traced-pass sample bounds.
	parseSampleReqs = 200
	lookupSamples   = 100
)

// liveClosedDeep is the mobile client's own latency: one client, one
// request outstanding, selective deep queries on the default server.
var liveClosedDeep = workload{
	name: "live-closed-deep",
	params: func(o options) map[string]any {
		return map[string]any{
			"docs": table2Docs, "text_scale": table2TextScale, "doc_seed": table2DocSeed,
			"pool": table2PoolSize, "pool_seed": table2PoolSeed, "P": table2P, "D_Q": deepDQ,
			"depth_exact": true, "request_draw": fmt.Sprintf("deck of %d with the exact Zipf s=%g mix over the pool, seed-shuffled, repeated", closedDeck, closedZipfS),
			"loop": "closed, 1 client (Dial: uplink + downlink connection)",
			"mode": "two-tier", "channels": 1, "index_encoding": "node", "compress": false,
			"journal": false, "cycle_capacity_bytes": cycleCapacity,
			"cycle_interval": liveCycleInterval.String(), "request_timeout": requestTimeout.String(),
		}
	},
	run: runClosed,
}

type closedEnv struct {
	ls   *liveServer
	cl   *netcast.Client
	coll *xmldoc.Collection
	reqs []xpath.Path
}

func (e *closedEnv) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	e.ls.close()
}

func closedSetup(o options, probe engine.Probe) (*closedEnv, error) {
	coll, err := table2Collection()
	if err != nil {
		return nil, err
	}
	pool, err := queryPool(coll, deepDQ, true)
	if err != nil {
		return nil, err
	}
	reqs := zipfDeck(pool, closedDeck, closedZipfS, o.seed^closedSeedXo)
	ls, err := startServer(o, coll, false, false, probe)
	if err != nil {
		return nil, err
	}
	e := &closedEnv{ls: ls, coll: coll, reqs: reqs}
	if e.cl, err = netcast.Dial(ls.srv.UplinkAddr(), ls.srv.BroadcastAddr(), core.SizeModel{}); err != nil {
		e.close()
		return nil, err
	}
	if !waitFor(drainTimeout, func() bool { return ls.srv.Stats().Subscribers >= 1 }) {
		e.close()
		return nil, fmt.Errorf("client did not subscribe")
	}
	return e, nil
}

// closedReq is one completed closed-loop request, times in ns since base.
type closedReq struct {
	q           xpath.Path
	sent, acked int64
	done        int64
	covered     int64
	stats       netcast.ClientStats
	docs        []*xmldoc.Document
}

func runClosed(o options, traced bool) (*pass, error) {
	var rec *recorder
	var probe engine.Probe
	base := time.Now()
	if traced {
		rec = newRecorder(base, true)
		probe = rec
	}
	env, setupS, err := measureSetup(o.setupReps, func() (*closedEnv, error) { return closedSetup(o, probe) }, (*closedEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	want := referenceAnswers(env.coll, env.reqs)
	if err := plantWrongAnswer(o, env.ls, env.coll); err != nil {
		return nil, err
	}
	srv := env.ls.srv
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ob *observer
	var ps *pendingSampler
	if traced {
		if ob, err = observe(ctx, srv, newAirLog(base, 0, lookupSamples), 2); err != nil {
			return nil, err
		}
		ps = samplePending(srv)
	}
	if rec != nil {
		rec.takeSpans()
	}

	p := &pass{}
	var done []closedReq
	var resyncs, reconnects int
	cycles0 := srv.Cycles()
	pm := startProcMeter()
	start := time.Now()
	deadline := start.Add(o.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		q := env.reqs[i%len(env.reqs)]
		r := closedReq{q: q, sent: int64(time.Since(base))}
		p.attempted++
		err := env.cl.Submit(q)
		r.acked = int64(time.Since(base))
		r.covered = env.cl.CoveredFrom()
		var docs []*xmldoc.Document
		if err == nil {
			rctx, rcancel := context.WithTimeout(ctx, requestTimeout)
			docs, r.stats, err = env.cl.Retrieve(rctx, q)
			rcancel()
		}
		r.done = int64(time.Since(base))
		resyncs += r.stats.Resyncs
		reconnects += r.stats.Reconnects
		if err != nil || !sameDocs(docIDs(docs), want[q.String()]) {
			p.failed++
			continue
		}
		if traced && len(done) < parseSampleReqs {
			r.docs = docs
		}
		done = append(done, r)
	}
	elapsed := time.Since(start)
	usage := pm.finish()
	cycles := srv.Cycles() - cycles0

	var lat, ack, retr, access, tuning, cyc []float64
	for _, r := range done {
		lat = append(lat, float64(r.done-r.sent)/1e6)
		ack = append(ack, float64(r.acked-r.sent)/1e6)
		retr = append(retr, float64(r.done-r.acked)/1e6)
		access = append(access, float64(r.stats.TuningBytes+r.stats.DozeBytes))
		tuning = append(tuning, float64(r.stats.TuningBytes))
		cyc = append(cyc, float64(r.stats.Cycles))
	}
	n := float64(len(done))
	p.throughput = n / elapsed.Seconds()
	if !traced {
		p.e2e = endToEnd{
			setupS:     setupS,
			p50:        windowedPercentile(lat, 50),
			p99:        windowedPercentile(lat, 99),
			throughput: p.throughput,
			cpuReq:     msOf(usage.cpu) / n,
			cpuCycle:   msOf(usage.cpu) / float64(cycles),
			access:     mean(access),
			tuning:     mean(tuning),
			heapMB:     usage.peakLiveMB,
		}.metrics(p)
		return p, nil
	}

	pendingMax := ps.finish()
	stats := srv.Stats()
	env.ls.close()
	<-ob.done
	log := ob.log
	if log.err != nil {
		return nil, log.err
	}
	m := newLayerMetrics()
	rec.report(m)
	setProc(m, usage, len(done))
	var firstCycle []float64
	for _, r := range done {
		if i, ok := log.byNumber[r.covered]; ok {
			firstCycle = append(firstCycle, float64(log.cycles[i].headAt-r.acked)/1e6)
		}
	}
	setNetcast(m, ack, firstCycle, mean(cyc), float64(cycles)/elapsed.Seconds(), pendingMax, log, stats)
	m.set("netcast.resyncs", float64(resyncs), "count")
	m.set("netcast.reconnects", float64(reconnects), "count")
	m.set("client.retrieve_ms.p50", percentile(retr, 50), "ms")
	m.set("client.retrieve_ms.p99", percentile(retr, 99), "ms")
	parse, err := replayParse(done)
	if err != nil {
		return nil, err
	}
	m.set("client.parse_ms_per_req", parse, "ms")
	lookup, err := replayLookup(log.capture, done)
	if err != nil {
		return nil, err
	}
	m.set("client.index_lookup_us", lookup, "us")
	p.layer = m
	return p, nil
}

// setNetcast records the netcast per-layer metrics both live workloads
// share.
func setNetcast(m metrics, ack, firstCycle []float64, cyclesPerReq, cyclesPerS float64, pendingMax int, log *airLog, st netcast.ServerStats) {
	periods := log.cyclePeriods()
	m.set("netcast.ack_ms.p50", percentile(ack, 50), "ms")
	m.set("netcast.ack_ms.p99", percentile(ack, 99), "ms")
	m.set("netcast.admit_to_first_cycle_ms.p50", percentile(firstCycle, 50), "ms")
	m.set("netcast.cycle_period_ms.p50", percentile(periods, 50), "ms")
	m.set("netcast.cycle_period_ms.p99", percentile(periods, 99), "ms")
	m.set("netcast.cycles_per_req", cyclesPerReq, "count")
	m.set("netcast.cycles_per_s", cyclesPerS, "1/s")
	m.set("netcast.pending.max", float64(pendingMax), "count")
	m.set("netcast.downlink_bytes_per_cycle", ratio(float64(log.off), float64(len(log.cycles))), "bytes")
	m.set("netcast.rejects", float64(st.RejectedRate+st.RejectedPending), "count")
}

func docIDs(docs []*xmldoc.Document) []xmldoc.DocID {
	ids := make([]xmldoc.DocID, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	return ids
}

// replayParse times xmldoc.Parse on the retrieved documents of the sampled
// requests, in milliseconds per request.
func replayParse(done []closedReq) (float64, error) {
	var per []float64
	for _, r := range done {
		if r.docs == nil {
			continue
		}
		var total time.Duration
		for _, d := range r.docs {
			payload := d.Marshal()
			t0 := time.Now()
			if _, err := xmldoc.Parse(bytes.NewReader(payload)); err != nil {
				return 0, fmt.Errorf("parse replay: %w", err)
			}
			total += time.Since(t0)
		}
		per = append(per, msOf(total))
	}
	return mean(per), nil
}

// replayLookup times decoding each captured index segment and navigating it
// for the query that cycle served, in microseconds per lookup.
func replayLookup(capture []byte, done []closedReq) (float64, error) {
	if len(capture) == 0 {
		return 0, nil
	}
	recs, err := netcast.ReadCapture(bytes.NewReader(capture))
	if err != nil {
		return 0, fmt.Errorf("lookup replay: %w", err)
	}
	// With one request outstanding, the request a cycle serves is the last
	// one covered at or before it.
	byCover := append([]closedReq(nil), done...)
	sort.SliceStable(byCover, func(i, j int) bool { return byCover[i].covered < byCover[j].covered })
	model := core.DefaultSizeModel()
	var us []float64
	for i := range recs {
		rec := &recs[i]
		k := sort.Search(len(byCover), func(j int) bool { return byCover[j].covered > int64(rec.Number) }) - 1
		if k < 0 {
			continue
		}
		nav := core.NewNavigator(byCover[k].q)
		t0 := time.Now()
		ix, err := rec.DecodeIndex(model)
		if err != nil {
			return 0, fmt.Errorf("lookup replay: %w", err)
		}
		nav.Lookup(ix)
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return mean(us), nil
}
