package main

import (
	"rago/internal/control"
	"rago/internal/engine"
	"rago/internal/ragschema"
)

// spec is one benchmark workload: the RAG schema, the retrieval substrate,
// what the optimizer searches, the traffic, and the limits its goodput is
// judged by. Offered rates are absolute requests per second, frozen from
// the analytic capacity of the point each workload serves (measured at
// seed 1 when the benchmark was written); they are never recomputed at run
// time, so a plan that gains capacity shows as lower latency and more
// goodput at the same rates.
type spec struct {
	name, why string
	schema    func() ragschema.Schema

	// Real IVF-PQ index on the retrieval path (vectors = 0: model-paced
	// retrieval only), sharded shards x replicas. The optimizer searches
	// nprobes x fanouts against the calibrated recall surface and the
	// harness serves the best QPS/chip point at or above recallFloor.
	vectors, dim, nlist, pqBytes int
	shards, replicas             int
	nprobes, fanouts             []int
	recallFloor                  float64

	// Planning over a heterogeneous shape sample: planShapes stratified
	// quantiles of the length distributions (shapeSample), searched over
	// policies x quanta.
	planShapes int
	policies   []engine.BatchPolicy
	quanta     []int

	// Traffic. rates is the fixed ladder (req/s) and opRung the operating
	// rate's index in it; diurnal traces use the rate as their mean with
	// the given swing. The operating rate replays opRequests requests (its
	// trace gives the latency and CPU metrics, so it gets the samples),
	// every other rung requests.
	opRequests int
	requests   int
	rates      []float64
	opRung     int
	amplitude  float64
	period     float64
	// Heavy-tailed lognormal prompt/output lengths (median 0: schema
	// constants).
	promptMedian, promptSigma float64
	outMedian, outSigma       float64
	// Retrieved-chunk reuse tags: Zipf skew over corpus chunks, with
	// session affinity when sessions > 0 (zipf 0: untagged).
	zipf             float64
	corpus, sessions int
	affinity         float64
	cacheTokens      int
	cacheAnswers     int

	// Goodput limit on p99 TTFT in virtual seconds (p99 TPOT is held to
	// tpotLimit on every workload).
	ttftLimit float64

	// SLO-aware controller over the SLO-feasible frontier library (nil:
	// one static schedule).
	ctl *control.Config
}

var workloads = []*spec{
	{
		name:   "case1-hot-sharded",
		why:    "Case I on a real 4x2 sharded IVF-PQ index with Zipf session-affine tags: vectordb, recall calibration and cache hits do most of the work",
		schema: func() ragschema.Schema { return ragschema.CaseI(8e9, 1) },

		vectors: 10000, dim: 32, nlist: 128, pqBytes: 16,
		shards: 4, replicas: 2,
		nprobes: []int{2, 8, 32}, fanouts: []int{1, 2, 4},
		recallFloor: 0.5,

		// Served point at seed 1: 93.6 req/s cache-blind on 4 chips; the
		// prefix cache lifts it, so the overload rung sits at ~1.9x.
		opRequests: 12000, requests: 2000,
		rates:  []float64{60, 90, 180},
		opRung: 1,
		zipf:   1.4, corpus: 2000, sessions: 64, affinity: 0.6,
		cacheTokens: 100000, cacheAnswers: 256,

		ttftLimit: 1.0,
	},
	{
		name:   "case3-iterative",
		why:    "Case III, 4 model-paced retrievals per sequence, constant shapes, no cache: the live decode loop does most of the work; vectordb and cache are bypassed",
		schema: func() ragschema.Schema { return ragschema.CaseIII(8e9, 4) },

		// Served point at seed 1: 92.6 req/s on 10 chips. It decodes
		// 2,048 sequences at once for ~22 s each,
		// so only about a minute of overload fills its slots and builds a
		// backlog: the overload rung is long.
		opRequests: 6000, requests: 7800,
		rates:  []float64{70, 130},
		opRung: 0,

		ttftLimit: 1.0,
	},
	{
		name:   "case4-shaped-cold",
		why:    "Case IV with lognormal shapes, a policy x chunk-quantum search and cold reuse tags: core search, engine pricing and cache inserts/evictions do most of the work",
		schema: func() ragschema.Schema { return ragschema.CaseIV(8e9) },

		planShapes: 4,
		policies:   []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted},
		quanta:     []int{0, 256},

		// Served point: 167 req/s on 19 chips, priced on the operating
		// trace's shapes at seed 1 (the 4-shape sample prices it at 331).
		opRequests: 9000, requests: 3000,
		rates:        []float64{80, 120, 210},
		opRung:       1,
		promptMedian: 512, promptSigma: 0.8,
		outMedian: 256, outSigma: 0.7,
		zipf: 1.05, corpus: 200000,
		cacheTokens: 4000, cacheAnswers: 64,

		ttftLimit: 2.0,
	},
	{
		name:   "case4-diurnal-ctl",
		why:    "Case IV under diurnal load with the SLO controller hot-swapping frontier plans, then SimReplay of its switches: control and Server.Switch do most of the work",
		schema: func() ragschema.Schema { return ragschema.CaseIV(8e9) },

		// Mean rates; the library's cheapest entry sustains 162 req/s on
		// 9 chips, its largest 495 req/s (analytic) on 52. 24,000
		// requests at 130 req/s span six periods.
		opRequests: 24000, requests: 4000,
		rates:     []float64{130, 330},
		opRung:    0,
		amplitude: 0.8, period: 30,

		ttftLimit: 3.0,
		ctl: &control.Config{
			SLO:      control.SLO{TTFT: 1.5},
			Window:   6,
			Interval: 2,
			Headroom: 1.5,
		},
	},
}

func findSpec(name string) *spec {
	for _, s := range workloads {
		if s.name == name {
			return s
		}
	}
	return nil
}
