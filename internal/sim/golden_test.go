package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
)

// goldenDigests pins the exact per-client and per-cycle outcome of every
// configuration in the simulator's knob matrix: mode × channels × index
// encoding × compression × loss × whole-tier reads. Any change to how a
// cycle is laid out on air or how a client reads it moves a digest.
var goldenDigests = map[string]string{
	"one-tier/K1/node/compress=false/loss=0/whole=false":       "9d9e68fcf07825b5",
	"one-tier/K1/node/compress=false/loss=0/whole=true":        "2c4031fabcfce006",
	"one-tier/K1/node/compress=false/loss=0.3/whole=false":     "67616e5fc2e73e44",
	"one-tier/K1/node/compress=false/loss=0.3/whole=true":      "bff5ac32e07f6deb",
	"one-tier/K1/node/compress=true/loss=0/whole=false":        "5c2015009bf725ee",
	"one-tier/K1/node/compress=true/loss=0/whole=true":         "5c2015009bf725ee",
	"two-tier/K1/node/compress=false/loss=0/whole=false":       "b14dc6c3db04dd55",
	"two-tier/K1/node/compress=false/loss=0/whole=true":        "f2e09996011a9a04",
	"two-tier/K1/node/compress=false/loss=0.3/whole=false":     "2dc06e077869b292",
	"two-tier/K1/node/compress=false/loss=0.3/whole=true":      "31d014a62fca8275",
	"two-tier/K1/node/compress=true/loss=0/whole=false":        "68ca5fb076340249",
	"two-tier/K1/node/compress=true/loss=0/whole=true":         "68ca5fb076340249",
	"two-tier/K1/succinct/compress=false/loss=0/whole=false":   "b537bdb83f3496ba",
	"two-tier/K1/succinct/compress=false/loss=0/whole=true":    "7c98d71b2853a4d5",
	"two-tier/K1/succinct/compress=false/loss=0.3/whole=false": "a5d6c65cbfa00002",
	"two-tier/K1/succinct/compress=false/loss=0.3/whole=true":  "20921aba46acfcea",
	"two-tier/K1/succinct/compress=true/loss=0/whole=false":    "a75a58fb36cea918",
	"two-tier/K1/succinct/compress=true/loss=0/whole=true":     "a75a58fb36cea918",
	"two-tier/K4/node/compress=false/loss=0/whole=false":       "44abbeb1d3bc91c4",
	"two-tier/K4/node/compress=false/loss=0/whole=true":        "7f5601a3a42a9ac2",
	"two-tier/K4/node/compress=false/loss=0.3/whole=false":     "d83d84e0fb1f6e3f",
	"two-tier/K4/node/compress=false/loss=0.3/whole=true":      "da916aac43cff3ed",
	"two-tier/K4/succinct/compress=false/loss=0/whole=false":   "64f67a2a0c671825",
	"two-tier/K4/succinct/compress=false/loss=0/whole=true":    "f07717b5384d9902",
	"two-tier/K4/succinct/compress=false/loss=0.3/whole=false": "f7a727f14a6dbeb8",
	"two-tier/K4/succinct/compress=false/loss=0.3/whole=true":  "3bcb938db1935a04",
	"staggered/K4": "55a64200e724c6f2",
}

// digestResult hashes everything a run reports except Result.Engine, which
// holds wall times.
func digestResult(res *Result) string {
	h := fnv.New64a()
	for _, cl := range res.Clients {
		fmt.Fprintf(h, "c %s %d %d %d %d %d %d %d %v\n", cl.Query, cl.Arrival, cl.Completed,
			cl.AccessBytes, cl.IndexTuningBytes, cl.DocTuningBytes, cl.CyclesListened, cl.EavesdropDocs, cl.Docs)
	}
	for _, cy := range res.Cycles {
		fmt.Fprintf(h, "y %+v\n", cy)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenSimMatrix(t *testing.T) {
	c, reqs := workload(t, 15, 20, 7)
	type knobs struct {
		mode     broadcast.Mode
		k        int
		enc      core.IndexEncoding
		compress bool
		loss     float64
		whole    bool
	}
	var matrix []knobs
	for _, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
		for _, k := range []int{1, 4} {
			for _, enc := range []core.IndexEncoding{core.EncodingNode, core.EncodingSuccinct} {
				for _, compress := range []bool{false, true} {
					for _, loss := range []float64{0, 0.3} {
						for _, whole := range []bool{false, true} {
							twoTierOnly := k > 1 || enc == core.EncodingSuccinct
							if twoTierOnly && mode != broadcast.TwoTierMode {
								continue
							}
							if compress && (k > 1 || loss > 0) {
								continue
							}
							matrix = append(matrix, knobs{mode, k, enc, compress, loss, whole})
						}
					}
				}
			}
		}
	}
	for _, kn := range matrix {
		enc := "node"
		if kn.enc == core.EncodingSuccinct {
			enc = "succinct"
		}
		name := fmt.Sprintf("%s/K%d/%s/compress=%v/loss=%g/whole=%v", kn.mode, kn.k, enc, kn.compress, kn.loss, kn.whole)
		t.Run(name, func(t *testing.T) {
			res, err := Run(Config{
				Collection:    c,
				Mode:          kn.mode,
				IndexEncoding: kn.enc,
				CycleCapacity: capacityFor(c),
				Requests:      reqs,
				WholeTierRead: kn.whole,
				LossProb:      kn.loss,
				LossSeed:      5,
				Channels:      kn.k,
				Compress:      kn.compress,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got, want := digestResult(res), goldenDigests[name]; got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
		})
	}
}

// TestGoldenSimStaggered pins a K=4 run whose requests arrive while cycles
// are on air, so joiners sync on index repetitions and catch documents
// before admission.
func TestGoldenSimStaggered(t *testing.T) {
	c, reqs := singleDocWorkload(t, 20, 1600, 1.6, 300, 40, 2)
	res, err := Run(Config{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: c.TotalSize(),
		Requests:      reqs,
		Channels:      4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	eav := 0
	for _, cl := range res.Clients {
		eav += cl.EavesdropDocs
	}
	if eav == 0 {
		t.Fatal("no client caught a document before admission")
	}
	if got, want := digestResult(res), goldenDigests["staggered/K4"]; got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
