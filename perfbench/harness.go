package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rago/internal/cache"
	"rago/internal/control"
	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/ragschema"
	"rago/internal/retrieval"
	"rago/internal/serve"
	"rago/internal/sim"
	"rago/internal/trace"
	"rago/internal/vectordb"
)

// searchK is the neighbour count of every real query (recall@10).
const searchK = 10

// maxPrompt and maxOutput clamp sampled request lengths: the 8B model's
// context, and a generation cap that bounds how long the slowest request
// of a replay runs.
const (
	maxPrompt = 4096
	maxOutput = 1024
)

// hosts is the cluster every workload plans for: 16 hosts of 4 XPU-C
// chips. tpotLimit is the p99 TPOT goodput limit (virtual seconds).
const (
	hosts     = 16
	tpotLimit = 0.2
)

// flushTimeout is the partial-batch flush timeout (virtual seconds) of
// every replay and simulation: the live runtime's default, what a
// `rago serve` user gets.
const flushTimeout = 0.05

// env is one workload set up at one seed: everything that exists before
// the first replayed arrival.
type env struct {
	sp    *spec
	seed  int64
	scale float64
	rec   *recorder

	schema ragschema.Schema

	data       [][]float32
	ix         *vectordb.IVFPQ
	sharded    *vectordb.Sharded
	recallMod  *retrieval.RecallModel
	buildS     float64
	calibrateS float64

	coreOpts core.Options
	opt      *core.Optimizer
	front    []core.SchedulePoint
	served   core.SchedulePoint
	plan     *engine.Plan
	lib      *control.Library
	planS    float64
	libS     float64

	// traces holds one trace per ladder rung.
	traces [][]trace.Request
	genS   float64

	cacheCfg *cache.Config
	setupS   float64
}

// sz scales a size for the self-check; the benchmark runs at scale 1.
func (e *env) sz(n int) int {
	v := int(math.Round(float64(n) * e.scale))
	if v < 1 {
		v = 1
	}
	return v
}

// prepare sets a workload up from its seed: traffic, retrieval index and
// recall calibration, schedule search, compile, analytic references and
// the controller's plan library.
func prepare(sp *spec, seed int64, scale float64, rec *recorder) (*env, error) {
	start := time.Now()
	e := &env{sp: sp, seed: seed, scale: scale, rec: rec, schema: sp.schema()}
	defer rec.begin("harness.setup")()

	if err := e.genTraffic(); err != nil {
		return nil, err
	}
	if sp.vectors > 0 {
		if err := e.buildIndex(); err != nil {
			return nil, err
		}
	}
	if err := e.search(); err != nil {
		return nil, err
	}
	if err := e.compile(); err != nil {
		return nil, err
	}
	if err := e.price(); err != nil {
		return nil, err
	}
	e.setupS = time.Since(start).Seconds()
	return e, nil
}

func (e *env) perRequestChunks() int {
	n := e.schema.NeighborsPerQuery * e.schema.QueriesPerRetrieval
	if n < 1 {
		n = 1
	}
	return n
}

// genTraffic draws one trace per ladder rung.
func (e *env) genTraffic() error {
	defer e.rec.begin("harness.traffic")()
	t0 := time.Now()
	sp := e.sp
	var prompt, output trace.LengthDist
	var err error
	if sp.promptMedian > 0 {
		if prompt, err = trace.LognormalLengths(sp.promptMedian, sp.promptSigma, maxPrompt); err != nil {
			return err
		}
		if output, err = trace.LognormalLengths(sp.outMedian, sp.outSigma, maxOutput); err != nil {
			return err
		}
	}
	for i, rate := range sp.rates {
		n := e.sz(sp.requests)
		if i == sp.opRung {
			n = e.sz(sp.opRequests)
		}
		if err := e.genTrace(rate, n, int64(i), prompt, output); err != nil {
			return err
		}
	}
	if sp.cacheTokens > 0 || sp.cacheAnswers > 0 {
		e.cacheCfg = &cache.Config{PrefixTokens: sp.cacheTokens, ChunkTokens: e.schema.ChunkTokens, AnswerEntries: sp.cacheAnswers}
	}
	e.genS += time.Since(t0).Seconds()
	return nil
}

// genTrace draws one trace of n requests at the given rate; stream picks
// its seeds, derived from the workload seed.
func (e *env) genTrace(rate float64, n int, stream int64, prompt, output trace.LengthDist) error {
	defer e.rec.begin("trace.Generate")()
	sp := e.sp
	seed := e.seed*1000 + stream
	var reqs []trace.Request
	var err error
	if sp.amplitude > 0 {
		reqs, err = trace.Diurnal(n, rate, sp.amplitude, sp.period, seed)
	} else {
		reqs, err = trace.Poisson(n, rate, seed)
	}
	if err == nil && !prompt.IsZero() {
		reqs = trace.WithShapes(reqs, prompt, output, seed^0x73686170)
	}
	if err == nil && sp.zipf > 0 {
		if sp.sessions > 0 {
			reqs, err = trace.WithSessions(reqs, sp.sessions, sp.affinity, sp.corpus, e.perRequestChunks(), sp.zipf, seed^0x72657573)
		} else {
			reqs, err = trace.WithDocZipf(reqs, sp.corpus, e.perRequestChunks(), sp.zipf, seed^0x72657573)
		}
	}
	if err != nil {
		return fmt.Errorf("trace for rate %g: %w", rate, err)
	}
	e.traces = append(e.traces, reqs)
	return nil
}

// opTrace is the trace at the operating rate.
func (e *env) opTrace() []trace.Request { return e.traces[e.sp.opRung] }

// queries draws n synthetic query vectors from the serving path's query
// distribution (uniform in [0, 10) per dimension).
func queries(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for d := range v {
			v[d] = rng.Float32() * 10
		}
		out[i] = v
	}
	return out
}

// buildIndex builds the IVF-PQ index, shards it, and calibrates the recall
// surface the optimizer prices nprobe and fanout by.
func (e *env) buildIndex() error {
	sp := e.sp
	t0 := time.Now()
	end := e.rec.begin("vectordb.BuildIVFPQ")
	e.data = vectordb.GenClustered(e.sz(sp.vectors), sp.dim, 64, 0.4, e.seed)
	ix, err := vectordb.BuildIVFPQ(e.data, sp.nlist, sp.pqBytes, e.seed)
	if err == nil {
		e.sharded, err = vectordb.NewSharded(ix, sp.shards, sp.replicas)
	}
	end()
	if err != nil {
		return fmt.Errorf("build index: %w", err)
	}
	e.ix = ix
	e.buildS = time.Since(t0).Seconds()

	t0 = time.Now()
	defer e.rec.begin("retrieval.Calibrate")()
	flat := vectordb.NewFlat(sp.dim)
	if err := flat.Add(e.data...); err != nil {
		return err
	}
	grid, err := e.sharded.CalibrateRecall(flat, queries(64, sp.dim, e.seed^0x726563), searchK, sp.nprobes, sp.fanouts)
	if err != nil {
		return fmt.Errorf("calibrate recall: %w", err)
	}
	if e.recallMod, err = retrieval.NewRecallModel(sp.nprobes, sp.fanouts, grid); err != nil {
		return err
	}
	e.calibrateS = time.Since(t0).Seconds()
	return nil
}

func shapesOf(reqs []trace.Request) []engine.Shape {
	out := make([]engine.Shape, len(reqs))
	for i, r := range reqs {
		out[i] = engine.Shape{PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
	}
	return out
}

// shapeSample returns the n-shape planning sample: the midpoint quantiles
// of the workload's prompt and output length distributions, paired in a
// fixed shuffled order. A stratified sample keeps a small sample
// representative of the heavy tails, and taking it from the distribution
// rather than from the seed's draws keeps the searched point the same at
// every seed.
func (sp *spec) shapeSample(n int) []engine.Shape {
	q := func(median, sigma float64, max, i int) int {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		return min(max, int(math.Round(median*math.Exp(sigma*z))))
	}
	pair := rand.New(rand.NewSource(1)).Perm(n)
	out := make([]engine.Shape, n)
	for i := range out {
		out[i] = engine.Shape{
			PromptTokens: q(sp.promptMedian, sp.promptSigma, maxPrompt, i),
			OutputTokens: q(sp.outMedian, sp.outSigma, maxOutput, pair[i]),
		}
	}
	return out
}

// search runs the schedule search and picks the served point: the best
// QPS/chip on the frontier at or above the recall floor.
func (e *env) search() error {
	sp := e.sp
	opts := core.DefaultOptions(hw.Cluster{Chip: hw.XPUC, Host: hw.EPYCHost, Hosts: hosts})
	opts.Workers = runtime.GOMAXPROCS(0)
	opts.NProbes = sp.nprobes
	opts.ShardFanouts = sp.fanouts
	opts.Policies = sp.policies
	opts.ChunkQuanta = sp.quanta
	if sp.planShapes > 0 {
		opts.Shapes = sp.shapeSample(sp.planShapes)
	}
	e.coreOpts = opts
	o, front, planS, err := e.optimize()
	if err != nil {
		return err
	}
	e.opt, e.front, e.planS = o, front, planS
	if len(e.front) == 0 {
		return fmt.Errorf("empty frontier")
	}
	best := -1
	for i, p := range e.front {
		if p.Metrics.Recall < sp.recallFloor {
			continue
		}
		if best < 0 || p.Metrics.QPSPerChip > e.front[best].Metrics.QPSPerChip {
			best = i
		}
	}
	if best < 0 {
		return fmt.Errorf("no frontier point reaches recall %.2f", sp.recallFloor)
	}
	e.served = e.front[best]

	if sp.ctl != nil {
		t0 := time.Now()
		defer e.rec.begin("control.NewLibrary")()
		e.lib, err = control.NewLibrary(o, e.front, sp.ctl.SLO)
		if err != nil {
			return err
		}
		e.libS = time.Since(t0).Seconds()
	}
	return nil
}

// optimize runs one schedule search on a fresh optimizer, as a
// `rago optimize` process would, and times Optimize alone.
func (e *env) optimize() (*core.Optimizer, []core.SchedulePoint, float64, error) {
	o, err := core.NewOptimizer(e.schema, e.coreOpts)
	if err != nil {
		return nil, nil, 0, err
	}
	if e.sharded != nil {
		o.Prof.Shards = e.sharded.Shards()
		o.Prof.RecallMod = e.recallMod
	}
	defer e.rec.begin("core.Optimize")()
	t0 := time.Now()
	front := o.Optimize()
	return o, front, time.Since(t0).Seconds(), nil
}

// compile compiles the served schedule and, on iterative workloads, draws
// each request's retrieval trigger positions for the compiled loop.
func (e *env) compile() error {
	end := e.rec.begin("engine.Compile")
	plan, err := e.opt.Asm.Compile(e.served.Item)
	end()
	if err != nil {
		return fmt.Errorf("compile served schedule: %w", err)
	}
	e.plan = plan
	if plan.Round != nil {
		t0 := time.Now()
		defer e.rec.begin("trace.WithTriggers")()
		out := plan.Steps[plan.DecodeIdx].Stage.OutTokens
		for i, reqs := range e.traces {
			e.traces[i] = trace.WithTriggers(reqs, plan.Round.RoundsPerSeq, out, (e.seed*1000+int64(i))^0x747267)
		}
		e.genS += time.Since(t0).Seconds()
	}
	return nil
}

// price computes the analytic references a `rago serve` user reads before
// the replay: shape-weighted metrics, and with a prefix cache the
// cache-aware metrics from a replay of the trace through a fresh cache.
func (e *env) price() error {
	op := e.opTrace()
	shapes := shapesOf(op)
	end := e.rec.begin("engine.ShapeMetrics")
	_ = e.plan.ShapeMetrics(shapes)
	end()
	if e.cacheCfg != nil && e.cacheCfg.PrefixTokens > 0 {
		end := e.rec.begin("cache.ReplayCredits")
		credits, _, err := cache.ReplayCredits(*e.cacheCfg, op, e.schema.PrefixTokens)
		end()
		if err != nil {
			return err
		}
		defer e.rec.begin("engine.CachedMetrics")()
		_ = e.plan.CachedMetrics(shapes, credits)
	}
	return nil
}

// replay is one served trace and what it cost: process CPU seconds, and
// the chips held averaged over the arrival window (the plan's chips on a
// static replay).
type replay struct {
	rate  float64
	sent  int
	rep   *serve.ServerReport
	ctl   *control.Result
	cpuS  float64
	chips float64
}

// speedup compresses the virtual span of every replay of the run into the
// requested wall seconds. A replay spans its last arrival plus the
// longest unloaded latency of any of its requests.
func (e *env) speedup(seconds float64) float64 {
	var span float64
	for _, reqs := range e.traces {
		tail := 0.0
		for _, r := range reqs {
			tail = math.Max(tail, e.plan.GenTimeForShape(r.PromptTokens, r.OutputTokens))
		}
		span += reqs[len(reqs)-1].Arrival + e.plan.Metrics.TTFT + tail
	}
	return math.Max(1, span/seconds)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// serveRung replays one ladder rung through the live runtime (or the
// controller driving it) with a fresh cache.
func (e *env) serveRung(i int, speedup float64) (*replay, error) {
	reqs := e.traces[i]
	opts := serve.Options{Speedup: speedup, FlushTimeout: flushTimeout}
	if e.cacheCfg != nil {
		c, err := cache.New(*e.cacheCfg)
		if err != nil {
			return nil, err
		}
		opts.Cache = c
	}
	if e.sharded != nil {
		opts.Sharded = e.sharded
		opts.SearchK = searchK
		opts.QueryDim = e.sp.dim
		opts.QuerySeed = e.seed
	}
	r := &replay{rate: e.sp.rates[i], sent: len(reqs)}
	cpu0 := cpuSeconds()
	if e.lib != nil {
		ctl, err := control.NewController(e.lib, *e.sp.ctl)
		if err != nil {
			return nil, err
		}
		end := e.rec.begin("control.Run")
		res, err := ctl.Run(opts, reqs)
		end()
		if err != nil {
			return nil, err
		}
		r.ctl, r.rep = res, res.Report
	} else {
		srv, err := serve.NewServer(e.plan, opts)
		if err != nil {
			return nil, err
		}
		end := e.rec.begin("serve.Serve")
		rep, err := srv.Serve(reqs)
		end()
		if err != nil {
			return nil, err
		}
		r.rep = rep
	}
	r.cpuS = cpuSeconds() - cpu0
	r.chips = arrivalChipSeconds(r.rep, reqs) / reqs[len(reqs)-1].Arrival
	return r, nil
}

// meets reports whether a replay meets the workload's goodput limits:
// every request completed, p99 TTFT and TPOT within the limits, and no
// growing backlog, i.e. no stage queue (the decode slot queue included)
// ever held a tenth of the trace.
func (e *env) meets(r *replay) bool {
	rep := r.rep
	for _, q := range rep.Queues {
		if q.PeakDepth > r.sent/10 {
			return false
		}
	}
	return rep.Completed == r.sent &&
		rep.TTFT.P99 <= e.sp.ttftLimit &&
		rep.TPOT.P99 <= tpotLimit
}

// outcome is everything one run measured.
type outcome struct {
	correct  bool
	problems []string
	sent     int
	failed   int
	metrics  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.correct = false
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupReps is how many times an untraced run sets the workload up; set-up
// time is reported as the median over them. planBudget is the least total
// wall time of schedule searches plan_s is the median over (each on a
// fresh optimizer, as many as fit, at least one per set-up).
const (
	setupReps  = 3
	planBudget = 1500 * time.Millisecond
)

// run executes one workload at one seed. Untraced, it sets up setupReps
// times, replays every ladder rung once, checks the outputs and reports
// the end-to-end metrics. Traced, it runs set-up and replays once without
// and once with spans (the difference is the tracing overhead), then times
// each layer's public functions outside the replay and reports the
// per-layer metrics.
func run(sp *spec, seed int64, seconds float64, traced bool, scale float64) (*outcome, *recorder, error) {
	out := &outcome{correct: true, metrics: map[string]metric{}}
	rec := newRecorder(false)
	reps := setupReps
	if traced {
		reps = 1
	}
	var e *env
	var setups, plans []float64
	var untracedWall float64
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			if !traced {
				break
			}
			rec.on = true
		}
		t0 := time.Now()
		setups, plans = setups[:0], plans[:0]
		for i := 0; i < reps; i++ {
			rec.run = i
			var err error
			// Collect garbage from the previous repetition so it is not
			// charged to this one.
			runtime.GC()
			if e, err = prepare(sp, seed, scale, rec); err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, e.setupS)
			plans = append(plans, e.planS)
		}
		if !traced {
			for spent := sum(plans); spent < planBudget.Seconds(); {
				runtime.GC()
				_, _, s, err := e.optimize()
				if err != nil {
					return nil, nil, err
				}
				plans = append(plans, s)
				spent += s
			}
		}
		rec.run = reps
		replays := e.replayAll(seconds, out)
		if replays == nil {
			return out, rec, nil
		}
		wall := time.Since(t0).Seconds()
		e.describe(replays)
		if pass == 0 {
			untracedWall = wall
			if !traced {
				e.endToEnd(out, replays, setups, plans)
			}
			continue
		}
		e.perLayer(out, replays)
		out.set("harness.trace_overhead_s", wall-untracedWall, "s")
	}
	e.checkSearch(out)
	return out, rec, nil
}

// replayAll serves every ladder rung and checks request conservation.
func (e *env) replayAll(seconds float64, out *outcome) []*replay {
	sp := e.speedup(seconds)
	var reps []*replay
	out.sent, out.failed = 0, 0
	for i := range e.traces {
		runtime.GC()
		r, err := e.serveRung(i, sp)
		if err != nil {
			out.check(false, "replay at %g req/s: %v", e.sp.rates[i], err)
			return nil
		}
		out.sent += r.sent
		out.failed += r.sent - r.rep.Completed
		out.check(r.rep.Completed+r.rep.Rejected == r.sent,
			"replay at %g req/s: completed %d + rejected %d != sent %d", r.rate, r.rep.Completed, r.rep.Rejected, r.sent)
		if c := r.rep.Cache; c != nil {
			out.check(c.Hits+c.Misses == c.Requests,
				"replay at %g req/s: cache hits %d + misses %d != lookups %d", r.rate, c.Hits, c.Misses, c.Requests)
		}
		reps = append(reps, r)
	}
	prev := math.Inf(-1)
	ok := true
	for _, p := range e.front {
		ok = ok && p.Metrics.TTFT >= prev
		prev = p.Metrics.TTFT
	}
	out.check(len(e.front) > 0 && ok, "frontier empty or not sorted by TTFT")
	return reps
}

// checkSearch verifies that a full-fanout sharded search returns exactly
// the single-index results on a held-out query sample.
func (e *env) checkSearch(out *outcome) {
	if e.sharded == nil {
		return
	}
	qs := queries(e.sz(128), e.sp.dim, e.seed^0x686f6c64)
	np := e.npServed()
	want, err1 := e.ix.SearchBatch(qs, searchK, np)
	got, err2 := e.sharded.SearchBatch(qs, searchK, np, e.sharded.Shards(), nil)
	if err1 != nil || err2 != nil {
		out.check(false, "held-out search: %v / %v", err1, err2)
		return
	}
	for i := range qs {
		same := len(want[i]) == len(got[i])
		for j := 0; same && j < len(want[i]); j++ {
			same = want[i][j] == got[i][j]
		}
		out.check(same, "held-out query %d: sharded full-fanout results differ from the single index", i)
		if !same {
			return
		}
	}
}

func (e *env) npServed() int {
	if np := e.served.Item.NProbe; np > 0 {
		return np
	}
	return retrieval.BaseNProbe
}

// endToEnd reports the metrics a user of the system sees.
func (e *env) endToEnd(out *outcome, reps []*replay, setups, plans []float64) {
	op := reps[e.sp.opRung]
	out.set("setup_s", median(setups), "s")
	out.set("plan_s", median(plans), "s")
	out.set("frontier_qps_per_chip", e.served.Metrics.QPSPerChip, "req/s/chip")
	out.set("ttft_p50_s", op.rep.TTFT.P50, "s")
	out.set("ttft_p99_s", op.rep.TTFT.P99, "s")
	out.set("cpu_us_per_req", 1e6*op.cpuS/float64(op.rep.Completed), "us")
	out.set("chip_s_per_kreq", 1000*arrivalChipSeconds(op.rep, e.opTrace())/float64(op.rep.Completed), "chip-s")
	goodput := 0.0
	for _, r := range reps {
		if e.meets(r) {
			goodput = math.Max(goodput, r.rate/r.chips)
		}
	}
	out.set("goodput_qps_per_chip", goodput, "req/s/chip")
}

// arrivalChipSeconds integrates the chips each plan tenure held while the
// trace's arrivals ran (a retired plan's drain overlapping the next tenure
// included, the final drain after the last arrival not). The drain of a
// finite replay is set by its one slowest request; leaving it out keeps
// the cost per request that of steady serving.
func arrivalChipSeconds(rep *serve.ServerReport, reqs []trace.Request) float64 {
	last := reqs[len(reqs)-1].Arrival
	cs := 0.0
	for _, ep := range rep.Epochs {
		end := math.Min(math.Max(ep.DrainedV, ep.RetiredV), last)
		cs += float64(ep.Chips) * math.Max(0, end-ep.StartV)
	}
	return cs
}

// describe prints the served point and each replay's outcome to stderr
// for a reader of the run; the result line on stdout is unaffected.
func (e *env) describe(reps []*replay) {
	fmt.Fprintf(os.Stderr, "served: %s\n  analytic: %s, %d chips\n  analytic on the operating trace's shapes: %s\n",
		e.served.Item.Describe(e.opt.Pipe), e.plan.Metrics, e.plan.Sched.ChipsUsed(), e.plan.ShapeMetrics(shapesOf(e.opTrace())))
	for _, r := range reps {
		fmt.Fprintf(os.Stderr, "  %6.1f req/s x %5d: ttft p50 %.3fs p99 %.3fs, tpot p99 %.4fs, %.1f chips, %d switches, meets limits: %v\n",
			r.rate, r.sent, r.rep.TTFT.P50, r.rep.TTFT.P99, r.rep.TPOT.P99, r.chips, r.rep.Switches, e.meets(r))
	}
}

// timeMedian calls f until at least budget has passed (and at least three
// times) and returns the median seconds per call. One span, named after
// the layer function f calls, covers the whole loop.
func (e *env) timeMedian(name string, budget time.Duration, f func()) float64 {
	defer e.rec.begin(name)()
	var xs []float64
	start := time.Now()
	for len(xs) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		f()
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs)
}

// stageMetricNames lists every plan slot name the workloads serve; per
// stage metrics are reported for each, zero where a workload's plan has
// no such slot.
var stageMetricNames = []string{"rewrite-prefix", "rewrite-decode", "rerank", "prefix", "retrieval", "decode", "iter-retrieval", "iter-prefix"}

// perLayer reports per-layer metrics: counters read from the layers'
// public reports, and timings of single layer calls made outside the
// replay.
func (e *env) perLayer(out *outcome, reps []*replay) {
	sp := e.sp
	op := reps[sp.opRung]
	opTrace := e.opTrace()
	const budget = 200 * time.Millisecond

	// vectordb and retrieval.
	var searchUs, scanned, recallPred, recallAt float64
	if e.sharded != nil {
		np, fo := e.npServed(), e.served.Item.ShardFanout
		qs := queries(e.sz(256), sp.dim, e.seed^0x686f6c64)
		searchUs = 1e6 * e.timeMedian("vectordb.SearchBatch", budget, func() {
			if _, err := e.sharded.SearchBatch(qs, searchK, np, fo, nil); err != nil {
				out.check(false, "sharded search: %v", err)
			}
		}) / float64(len(qs))
		scanned = e.sharded.VectorsScanned(np, fo)
		recallPred = e.recallMod.Recall(np, fo)
		flat := vectordb.NewFlat(sp.dim)
		if err := flat.Add(e.data...); err != nil {
			out.check(false, "flat index: %v", err)
		}
		truth, err1 := flat.SearchBatch(qs, searchK)
		got, err2 := e.sharded.SearchBatch(qs, searchK, np, fo, nil)
		if err1 != nil || err2 != nil {
			out.check(false, "recall search: %v / %v", err1, err2)
		} else {
			for i := range qs {
				recallAt += vectordb.Recall(truth[i], got[i], searchK)
			}
			recallAt /= float64(len(qs))
		}
	}
	out.set("vectordb.build_s", e.buildS, "s")
	out.set("vectordb.search_us_per_query", searchUs, "us")
	out.set("vectordb.vectors_scanned_per_query", scanned, "count")
	out.set("retrieval.calibrate_s", e.calibrateS, "s")
	out.set("retrieval.recall_predicted", recallPred, "ratio")
	out.set("retrieval.recall_at_10", recallAt, "ratio")

	// core.
	st := e.opt.SearchStats()
	out.set("core.plans", float64(st.Plans), "count")
	out.set("core.plans_pruned", float64(st.PrunedPlans), "count")
	out.set("core.plans_searched", float64(st.Searched), "count")
	out.set("core.partials_pruned", float64(st.PrunedPartials), "count")
	out.set("core.qps_bound_gap", st.QPSGap, "ratio")
	out.set("core.frontier_points", float64(len(e.front)), "count")
	minTTFT, _ := perf.MinTTFT(e.front)
	out.set("core.frontier_ttft_s", minTTFT.Metrics.TTFT, "s")

	// engine.
	compileMs := 1e3 * e.timeMedian("engine.Compile", budget, func() {
		if _, err := e.opt.Asm.Compile(e.served.Item); err != nil {
			out.check(false, "compile: %v", err)
		}
	})
	shapes := shapesOf(opTrace)
	var credits []int
	var replayUs float64
	if e.cacheCfg != nil && e.cacheCfg.PrefixTokens > 0 {
		replayUs = 1e6 * e.timeMedian("cache.ReplayCredits", budget, func() {
			var err error
			if credits, _, err = cache.ReplayCredits(*e.cacheCfg, opTrace, e.schema.PrefixTokens); err != nil {
				out.check(false, "replay credits: %v", err)
			}
		}) / float64(len(opTrace))
	}
	priceMs := 1e3 * e.timeMedian("engine.ShapeMetrics", budget, func() {
		if credits != nil {
			_ = e.plan.CachedMetrics(shapes, credits)
		} else {
			_ = e.plan.ShapeMetrics(shapes)
		}
	})
	out.set("engine.compile_ms", compileMs, "ms")
	out.set("engine.price_ms", priceMs, "ms")
	out.set("engine.pad_waste", op.rep.PadWaste, "ratio")
	prefixFill := 0.0
	for _, q := range op.rep.Queues {
		if q.Stage == "prefix" {
			prefixFill = q.MeanFill
		}
	}
	out.set("engine.prefix_mean_fill", prefixFill, "ratio")

	// cache.
	var hit, saved, evict, answer float64
	if c := op.rep.Cache; c != nil {
		hit = c.HitRate
		var base float64
		for _, r := range opTrace {
			if !r.Tagged() {
				continue
			}
			if r.PromptTokens > 0 {
				base += float64(r.PromptTokens)
			} else {
				base += float64(e.schema.PrefixTokens)
			}
		}
		if base > 0 {
			saved = float64(c.SavedTokens) / base
		}
		evict = float64(c.Evictions) / float64(op.sent)
		if n := c.AnswerHits + c.AnswerMisses; n > 0 {
			answer = float64(c.AnswerHits) / float64(n)
		}
	}
	out.set("cache.replay_us_per_req", replayUs, "us")
	out.set("cache.hit_rate", hit, "ratio")
	out.set("cache.saved_token_frac", saved, "ratio")
	out.set("cache.evictions_per_req", evict, "count")
	out.set("cache.answer_hit_frac", answer, "ratio")

	// trace.
	out.set("trace.gen_ms", 1e3*e.genS, "ms")

	// sim: the discrete-event executor on the operating trace, on the
	// served plan (under the controller, the most capable entry it used).
	simPlan := e.plan
	if op.ctl != nil {
		simPlan = e.lib.Entries[op.ctl.MaxEntry].Plan
	}
	var simRes sim.ServeResult
	simS := e.timeMedian("sim.Run", budget, func() {
		ss, err := sim.NewServeFromPlan(simPlan)
		if err == nil && e.cacheCfg != nil {
			ss.Cache, err = cache.New(*e.cacheCfg)
		}
		if err == nil {
			simRes, err = ss.Run(opTrace, flushTimeout)
		}
		if err != nil {
			out.check(false, "sim: %v", err)
		}
	})
	out.set("sim.req_per_s", float64(len(opTrace))/simS, "req/s")
	out.set("sim.ttft_mean_s", simRes.MeanTTFT, "s")

	// serve.
	top := reps[len(reps)-1]
	out.set("serve.wall_overrun", op.rep.WallSeconds*op.rep.Speedup/op.rep.DurationV, "ratio")
	liveVsSim := 0.0
	if simRes.MeanTTFT > 0 {
		liveVsSim = op.rep.TTFT.Mean / simRes.MeanTTFT
	}
	out.set("serve.live_vs_sim_ttft", liveVsSim, "ratio")
	out.set("serve.stall_p50_s", op.rep.Stall.P50, "s")
	out.set("serve.tpot_p99_s", op.rep.TPOT.P99, "s")
	out.set("serve.ttft_samples", float64(op.rep.Completed), "count")
	out.set("serve.qps_vs_analytic", top.rep.QPSVsAnalytic, "ratio")
	out.set("serve.search_wall_p99_ms", 1e3*op.rep.SearchWall.P99, "ms")
	out.set("serve.failed_frac", float64(out.failed)/float64(out.sent), "ratio")
	for _, name := range stageMetricNames {
		var peak, fill, batches float64
		for _, q := range op.rep.Queues {
			if q.Stage == name {
				peak, fill, batches = float64(q.PeakDepth), q.MeanFill, float64(q.Batches)
			}
		}
		out.set("serve."+name+".queue_peak", peak, "count")
		if name != "decode" { // continuous batching dispatches no decode batches
			out.set("serve."+name+".mean_fill", fill, "ratio")
			out.set("serve."+name+".batches", batches, "count")
		}
	}

	// control.
	var switches, ticks, savedFrac, simReplayMs, liveVsSimQPS float64
	if op.ctl != nil {
		switches, ticks, savedFrac = float64(op.rep.Switches), float64(op.ctl.Ticks), op.ctl.Saved
		var sr control.SimResult
		simReplayMs = 1e3 * e.timeMedian("control.SimReplay", budget, func() {
			var err error
			if sr, err = control.SimReplay(e.lib, op.ctl, opTrace, flushTimeout, 0); err != nil {
				out.check(false, "sim replay: %v", err)
			}
		})
		if sr.QPS > 0 {
			liveVsSimQPS = op.rep.SustainedQPS / sr.QPS
		}
	}
	out.set("control.library_ms", 1e3*e.libS, "ms")
	out.set("control.switches", switches, "count")
	out.set("control.ticks", ticks, "count")
	out.set("control.saved_frac", savedFrac, "ratio")
	out.set("control.simreplay_ms", simReplayMs, "ms")
	out.set("control.live_vs_sim_qps", liveVsSimQPS, "ratio")

	self := e.rec.selfTimes()
	for _, l := range layers {
		out.set("self."+l+"_ms", 1e3*self[l].Seconds(), "ms")
	}
}
