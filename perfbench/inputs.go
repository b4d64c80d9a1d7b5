package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/schedule"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// The reconstructed Table 2 setup (see internal/exp.Default). The
// collection and the query pools are fixed, as in the paper's evaluation;
// --seed draws the request streams, arrivals and write traffic.
const (
	table2Docs      = 100
	table2TextScale = 2.1
	table2DocSeed   = 1
	table2PoolSeed  = 2
	table2PoolSize  = 500
	table2P         = 0.1
	table2DQ        = 5
	deepDQ          = 8
	cycleCapacity   = 100_000
)

func table2Collection() (*xmldoc.Collection, error) {
	return gen.Documents(gen.DocConfig{
		Schema:    dtd.ByName("nitf"),
		NumDocs:   table2Docs,
		TextScale: table2TextScale,
		Seed:      table2DocSeed,
	})
}

// queryPool draws the 500-query pool with P = 0.1 and the given D_Q; deep
// makes every query as deep as D_Q allows (the fig9c/11c-deep regime).
func queryPool(coll *xmldoc.Collection, dq int, deep bool) ([]xpath.Path, error) {
	return gen.Queries(coll, gen.QueryConfig{
		NumQueries:   table2PoolSize,
		MaxDepth:     dq,
		WildcardProb: table2P,
		DepthExact:   deep,
		Seed:         table2PoolSeed,
	})
}

// zipfDeck returns n requests whose mix over the pool ranks follows
// Zipf(s) exactly, by largest-remainder rounding, in a seed-shuffled
// order. A closed loop cycles through the deck: the mix a run measures
// then barely depends on how many requests fit in the run, where i.i.d.
// draws would let the few heavy popular queries swing it from seed to
// seed.
func zipfDeck(pool []xpath.Path, n int, s float64, seed int64) []xpath.Path {
	weights := make([]float64, len(pool))
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -s)
		total += weights[k]
	}
	counts := make([]int, len(pool))
	type rem struct {
		k    int
		frac float64
	}
	rems := make([]rem, len(pool))
	used := 0
	for k, w := range weights {
		exact := w / total * float64(n)
		counts[k] = int(exact)
		used += counts[k]
		rems[k] = rem{k, exact - float64(counts[k])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; used < n; i++ {
		counts[rems[i].k]++
		used++
	}
	deck := make([]xpath.Path, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			deck = append(deck, pool[k])
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// answers is the checker's reference: each distinct query's exact result
// set over the static collection, evaluated by the XPath reference
// evaluator rather than the engine under test.
type answers map[string][]xmldoc.DocID

func referenceAnswers(coll *xmldoc.Collection, qs []xpath.Path) answers {
	out := make(answers)
	for _, q := range qs {
		key := q.String()
		if _, ok := out[key]; !ok {
			ids := q.MatchingDocs(coll)
			slices.Sort(ids)
			out[key] = ids
		}
	}
	return out
}

// sameDocs reports whether got (any order) is exactly want (sorted).
func sameDocs(got, want []xmldoc.DocID) bool {
	if len(got) != len(want) {
		return false
	}
	s := slices.Clone(got)
	slices.Sort(s)
	return slices.Equal(s, want)
}

// withoutDoc returns the collection minus one document: the planted wrong
// answer the self-tests use (the checker keeps the full collection).
func withoutDoc(coll *xmldoc.Collection, id xmldoc.DocID) (*xmldoc.Collection, error) {
	var docs []*xmldoc.Document
	for _, d := range coll.Docs() {
		if d.ID != id {
			docs = append(docs, d)
		}
	}
	if len(docs) == coll.Len() {
		return nil, fmt.Errorf("document %d not in collection", id)
	}
	return xmldoc.NewCollection(docs)
}

// scaled applies the self-tests' workload scale to a count.
func scaled(o options, n int) int {
	v := int(float64(n) * o.scale)
	if v < 1 {
		v = 1
	}
	return v
}

// slowScheduler is LeeLo with a fixed delay per planning call: the planted
// regression the self-tests pass through the public Scheduler field. It
// keeps the incremental planning path, so only the delay differs.
type slowScheduler struct {
	schedule.LeeLo
	delay time.Duration
}

// PlanCycle implements schedule.Scheduler.
func (s slowScheduler) PlanCycle(pending []schedule.Request, size func(xmldoc.DocID) int, capacity int, now int64) []xmldoc.DocID {
	time.Sleep(s.delay)
	return s.LeeLo.PlanCycle(pending, size, capacity, now)
}

// PlanIndexed implements schedule.IncrementalScheduler.
func (s slowScheduler) PlanIndexed(x *schedule.DemandIndex, capacity int, now int64) []xmldoc.DocID {
	time.Sleep(s.delay)
	return s.LeeLo.PlanIndexed(x, capacity, now)
}

// scheduler returns the run's scheduler: nil (the LeeLo default) unless a
// slowdown is planted.
func scheduler(o options) schedule.Scheduler {
	if o.slowSchedule > 0 {
		return slowScheduler{delay: o.slowSchedule}
	}
	return nil
}
