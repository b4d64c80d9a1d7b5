package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/netcast/transport"
)

// replayTransport times the workload's own captured frames through the
// transport layer: Encoder.Encode on each inner frame and Reader.Next on
// each envelope, per frame kind, plus the compression ratio the frames got
// on air.
func replayTransport(m metrics, samples map[string][]frameSample) {
	for _, kind := range frameKinds {
		frames := samples[kind]
		if len(frames) == 0 {
			continue
		}
		enc := transport.NewEncoder(true, 0)
		var stream bytes.Buffer
		var inner, wire int
		var encode time.Duration
		for _, f := range frames {
			t0 := time.Now()
			_, err := enc.Encode(transport.NoStream, f.inner)
			encode += time.Since(t0)
			if err != nil {
				continue
			}
			inner += len(f.inner)
			wire += len(f.raw)
			stream.Write(f.raw)
		}
		r := transport.NewReader(bytes.NewReader(stream.Bytes()))
		var decode time.Duration
		decoded := 0
		for {
			t0 := time.Now()
			_, err := r.Next()
			if err != nil {
				break
			}
			decode += time.Since(t0)
			decoded++
		}
		m.set("transport.encode_us."+kind, float64(encode)/1e3/float64(len(frames)), "us")
		m.set("transport.decode_us."+kind, float64(decode)/1e3/float64(decoded), "us")
		m.set("transport.ratio."+kind, ratio(float64(wire), float64(inner)), "ratio")
	}
}

// replayJournal replays the workload's admit and commit sequence into a
// fresh journal and times each call. Admits of the requests a cycle covers
// precede that cycle's commit, as on the server; IDs follow ack order.
func replayJournal(m metrics, log *airLog, reqs []openReq, outs []*openOutcome) error {
	order := sortByAck(reqs, outs)
	admits := make(map[int64][]journal.Request)
	commits := make(map[int64][]journal.Delivery)
	for n, i := range order {
		id := int64(n + 1)
		r, out := &reqs[i], outs[i]
		var docs []uint16
		for _, ds := range out.deliveries {
			for _, d := range ds {
				docs = append(docs, uint16(d))
			}
		}
		sort.Slice(docs, func(a, b int) bool { return docs[a] < docs[b] })
		admits[r.covered] = append(admits[r.covered], journal.Request{ID: id, Arrival: r.covered, Query: r.q.String(), Remaining: docs})
		last := log.cycles[out.lastCycle].number
		for num, ds := range out.deliveries {
			d := journal.Delivery{ID: id, Retired: num == last}
			for _, doc := range ds {
				d.Docs = append(d.Docs, uint16(doc))
			}
			commits[num] = append(commits[num], d)
		}
	}
	for num := range commits {
		sort.Slice(commits[num], func(a, b int) bool { return commits[num][a].ID < commits[num][b].ID })
	}

	// The timed replay uses the server's journal options; an untimed one
	// without snapshots measures the bytes a request costs the log.
	var admitUS, commitUS []float64
	if _, err := withJournal(journal.Options{}, func(j *journal.Journal) error {
		for _, c := range log.cycles {
			for _, r := range admits[c.number] {
				t0 := time.Now()
				if err := j.Admit(r); err != nil {
					return err
				}
				admitUS = append(admitUS, float64(time.Since(t0))/1e3)
			}
			t0 := time.Now()
			if err := j.Commit(c.number, commits[c.number]); err != nil {
				return err
			}
			commitUS = append(commitUS, float64(time.Since(t0))/1e3)
		}
		return nil
	}); err != nil {
		return err
	}
	size, err := withJournal(journal.Options{SnapshotEvery: -1}, func(j *journal.Journal) error {
		for _, c := range log.cycles {
			for _, r := range admits[c.number] {
				if err := j.Admit(r); err != nil {
					return err
				}
			}
			if err := j.Commit(c.number, commits[c.number]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("journal.admit_us.p50", percentile(admitUS, 50), "us")
	m.set("journal.admit_us.p99", percentile(admitUS, 99), "us")
	m.set("journal.commit_us.p50", percentile(commitUS, 50), "us")
	m.set("journal.commit_us.p99", percentile(commitUS, 99), "us")
	m.set("journal.bytes_per_req", ratio(float64(size), float64(len(order))), "bytes")
	return nil
}

// withJournal opens a journal in a fresh temporary directory, runs fn, and
// returns the directory's size before the journal closes.
func withJournal(opts journal.Options, fn func(*journal.Journal) error) (int64, error) {
	dir, err := os.MkdirTemp("", "perfbench-journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	opts.Dir = dir
	j, _, err := journal.Open(opts)
	if err != nil {
		return 0, fmt.Errorf("journal replay: %w", err)
	}
	if err := fn(j); err != nil {
		j.Close()
		return 0, fmt.Errorf("journal replay: %w", err)
	}
	var size int64
	err = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			size += info.Size()
		}
		return err
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return size, err
}
