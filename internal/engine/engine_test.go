package engine

import (
	"math"
	"strings"
	"sync"
	"testing"

	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
)

func mustCompile(t *testing.T, schema ragschema.Schema, sched Schedule) (*Plan, *stageperf.Profiler, pipeline.Pipeline) {
	t.Helper()
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	plan, err := Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	return plan, prof, pipe
}

func caseIVSchedule() Schedule {
	return Schedule{
		Groups: []GroupSchedule{
			{Stages: []int{0, 1}, Chips: 4, Batch: 4},  // rewrite prefix+decode
			{Stages: []int{3, 4}, Chips: 16, Batch: 4}, // rerank + prefix
		},
		RetrievalServers: 16,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
		DecodeReplicas:   4,
	}
}

// TestCompileGoldenCaseIV is the golden equivalence check: the compiled
// plan's per-stage steps must reproduce the pre-refactor construction —
// a direct profiler evaluation per (stage, chips, batch, replicas) — and
// the assembled metrics must equal the hand-composed latency/occupancy
// chain the analytical Assembler used to build privately.
func TestCompileGoldenCaseIV(t *testing.T) {
	schema := ragschema.CaseIV(8e9)
	sched := caseIVSchedule()
	plan, prof, pipe := mustCompile(t, schema, sched)

	if len(plan.Steps) != len(pipe.Stages) {
		t.Fatalf("plan has %d steps for %d stages", len(plan.Steps), len(pipe.Stages))
	}
	// Golden per-stage steps: XPU group members.
	var wantTTFT float64
	qps := math.Inf(1)
	for gi, g := range sched.Groups {
		var occ float64
		for i, idx := range g.Stages {
			pt := prof.EvalR(pipe.Stages[idx], g.Chips, g.Batch, g.ReplicasFor(i))
			if !pt.OK {
				t.Fatalf("reference evaluation infeasible for stage %d", idx)
			}
			st := plan.Steps[idx]
			if st.Latency != pt.Latency || st.QPS != pt.QPS {
				t.Errorf("stage %d step (lat %v qps %v) != profiler (%v %v)", idx, st.Latency, st.QPS, pt.Latency, pt.QPS)
			}
			if st.Resource != gi || st.Batch != g.Batch || st.Chips != g.Chips {
				t.Errorf("stage %d step routing = %+v, want group %d batch %d chips %d", idx, st, gi, g.Batch, g.Chips)
			}
			wantTTFT += pt.Latency
			occ += 1 / pt.QPS
		}
		if got := plan.Resources[gi].Occupancy; math.Abs(got-occ) > 1e-15 {
			t.Errorf("group %d occupancy %v, want %v", gi, got, occ)
		}
		qps = math.Min(qps, 1/occ)
	}
	// Retrieval tier.
	retrIdx := pipe.Index(pipeline.KindRetrieval)
	rt := prof.Eval(pipe.Stages[retrIdx], sched.RetrievalServers, sched.RetrievalBatch)
	wantRetr := rt.Latency + prof.RetrievalTransferLatency()
	if st := plan.Steps[retrIdx]; st.Latency != wantRetr {
		t.Errorf("retrieval step latency %v, want %v", st.Latency, wantRetr)
	}
	wantTTFT += wantRetr
	qps = math.Min(qps, rt.QPS)
	// Decode tier.
	decIdx := pipe.Index(pipeline.KindDecode)
	dec := prof.EvalR(pipe.Stages[decIdx], sched.DecodeChips, sched.DecodeBatch, sched.DecodeReplicasOrOne())
	if st := plan.Steps[decIdx]; st.Latency != dec.Latency || st.Resource != DecodeResource {
		t.Errorf("decode step = %+v, want latency %v on the decode tier", plan.Steps[decIdx], dec.Latency)
	}
	qps = math.Min(qps, float64(sched.DecodeBatch)/dec.Latency)

	// Assembled metrics: the linear pipeline's critical path is the plain
	// latency sum, throughput the bottleneck resource.
	if math.Abs(plan.Metrics.TTFT-wantTTFT) > 1e-12 {
		t.Errorf("TTFT %v, want %v", plan.Metrics.TTFT, wantTTFT)
	}
	if math.Abs(plan.Metrics.QPS-qps)/qps > 1e-12 {
		t.Errorf("QPS %v, want %v", plan.Metrics.QPS, qps)
	}
	wantTPOT := dec.Latency / float64(pipe.Stages[decIdx].OutTokens)
	if math.Abs(plan.Metrics.TPOT-wantTPOT) > 1e-15 {
		t.Errorf("TPOT %v, want %v", plan.Metrics.TPOT, wantTPOT)
	}
	if want := qps / float64(sched.ChipsUsed()); math.Abs(plan.Metrics.QPSPerChip-want) > 1e-12 {
		t.Errorf("QPS/chip %v, want %v", plan.Metrics.QPSPerChip, want)
	}
}

// TestCompileRejectsDecodeFreePipeline: a schedule over a pipeline with no
// decode stage used to index -1 and panic in the executors; the engine
// must return a descriptive error instead.
func TestCompileRejectsDecodeFreePipeline(t *testing.T) {
	schema := ragschema.CaseI(8e9, 1)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Stages = pipe.Stages[:len(pipe.Stages)-1] // chop decode off
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      64,
	}
	_, err = Compile(pipe, sched, prof)
	if err == nil {
		t.Fatal("decode-free pipeline must not compile")
	}
	if !strings.Contains(err.Error(), "decode") {
		t.Errorf("error %q should name the missing decode stage", err)
	}
}

func TestCompileRejectsInfeasible(t *testing.T) {
	schema := ragschema.CaseI(8e9, 1)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	good := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      64,
	}
	bad := good
	bad.DecodeChips = 0
	if _, err := Compile(pipe, bad, prof); err == nil {
		t.Error("invalid schedule must not compile")
	}
	bad = good
	bad.RetrievalServers = 8 // cannot hold the 6.1 TB corpus
	if _, err := Compile(pipe, bad, prof); err == nil {
		t.Error("under-provisioned retrieval tier must not compile")
	}
}

// TestCompileFanOut checks the multi-source stage graph compiles into
// parallel retrieval tiers whose latencies overlap on the TTFT path.
func TestCompileFanOut(t *testing.T) {
	schema := ragschema.CaseV(8e9, 2)
	sched := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{2, 3}, Chips: 16, Batch: 4}}, // rerank+prefix
		RetrievalServers: 8,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
		DecodeReplicas:   4,
	}
	plan, prof, pipe := mustCompile(t, schema, sched)
	if len(plan.RetrievalIdxs) != 2 {
		t.Fatalf("retrieval stages = %v, want 2 sources", plan.RetrievalIdxs)
	}
	nRetrRes := 0
	for _, r := range plan.Resources {
		if r.Retrieval {
			nRetrRes++
		}
	}
	if nRetrRes != 2 {
		t.Errorf("retrieval resources = %d, want one tier per source", nRetrRes)
	}
	// TTFT counts the two parallel retrievals once, not twice: it must
	// equal one retrieval + rerank + prefix.
	rt := prof.Eval(pipe.Stages[0], sched.RetrievalServers, sched.RetrievalBatch)
	rr := prof.Eval(pipe.Stages[2], 16, 4)
	pf := prof.Eval(pipe.Stages[3], 16, 4)
	want := rt.Latency + prof.RetrievalTransferLatency() + rr.Latency + pf.Latency
	if math.Abs(plan.Metrics.TTFT-want) > 1e-12 {
		t.Errorf("fan-out TTFT %v, want %v (parallel retrievals overlap)", plan.Metrics.TTFT, want)
	}
}

// TestPlanConcurrentReuse hammers one compiled plan from many goroutines —
// the sharing pattern of the optimizer workers and the serving runtime.
// Primarily a data-race canary for `go test -race`.
func TestPlanConcurrentReuse(t *testing.T) {
	schema := ragschema.CaseIV(8e9)
	sched := caseIVSchedule()
	plan, _, _ := mustCompile(t, schema, sched)
	ref := plan.StepLatency(3, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for idx := range plan.Steps {
					n := 1 + i%plan.Steps[idx].Batch
					if lat := plan.StepLatency(idx, n); lat <= 0 {
						t.Errorf("stage %d latency at batch %d = %v", idx, n, lat)
						return
					}
				}
				if got := plan.StepLatency(3, 2); got != ref {
					t.Errorf("concurrent StepLatency drifted: %v != %v", got, ref)
					return
				}
				if !plan.Metrics.Valid() {
					t.Error("metrics invalid under concurrent reads")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestScheduleDescribeFanOut(t *testing.T) {
	schema := ragschema.CaseV(8e9, 2)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{2, 3}, Chips: 16, Batch: 4}},
		RetrievalServers: 8,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
	}
	if err := sched.Validate(pipe); err != nil {
		t.Fatal(err)
	}
	desc := sched.Describe(pipe)
	if !strings.Contains(desc, "x2 sources") {
		t.Errorf("Describe = %q, should mention the source fan-out", desc)
	}
}

// TestRetrievalPauseParallelSources: a group spanning a multi-source
// fan-out waits for the retrieval round once — the sources run on
// independent tiers in parallel — so the pause is the longest branch,
// not the sum over sources.
func TestRetrievalPauseParallelSources(t *testing.T) {
	schema := ragschema.CaseV(8e9, 2)
	schema.QueryRewriterParams = 8e9 // upstream XPU stages so a group can span the fan-out
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	// Baseline-style group: every pre-decode XPU stage on one pool,
	// spanning both retrieval sources.
	spanning := pipe.PreDecodeXPUStages()
	const servers, batch = 8, 4
	pause, ok := RetrievalPause(pipe, prof, spanning, servers, batch, 0, 0)
	if !ok {
		t.Fatal("pause infeasible")
	}
	rt := prof.Eval(pipe.Stages[pipe.Index(pipeline.KindRetrieval)], servers, batch)
	want := rt.Latency / batch
	if math.Abs(pause-want) > 1e-15 {
		t.Errorf("fan-out pause = %v, want one parallel round %v (not the %v sum)", pause, want, 2*want)
	}
	// A group strictly downstream of the fan-out pauses not at all.
	post := []int{pipe.Index(pipeline.KindRerank), pipe.Index(pipeline.KindPrefix)}
	if pause, ok := RetrievalPause(pipe, prof, post, servers, batch, 0, 0); !ok || pause != 0 {
		t.Errorf("downstream group pause = %v, want 0", pause)
	}
}

// TestEvaluatorMemoRestamp drives schedules A, B, A, C, D through one
// shaped Evaluator and restamps every policy after each: B differs from A
// in both its prefix and its decode configuration, C only in its
// iterative batch (so only the per-request stall separates their decode
// terms), D only in its prefix group's chips.
// Every result must equal a freshly compiled plan's ShapeMetrics for that
// stamping, bit for bit — the memo must never serve one configuration's
// terms to another — and the second pass over A must not grow the memo.
func TestEvaluatorMemoRestamp(t *testing.T) {
	schema := ragschema.CaseIII(8e9, 4)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	var shapes []Shape
	for i := 0; i < 12; i++ {
		shapes = append(shapes, Shape{PromptTokens: 180 + (i*53)%400, OutputTokens: 128 + (i*31)%256})
	}
	shapes = append(shapes, Shape{PromptTokens: 3000, OutputTokens: 512}, Shape{})
	ev, err := NewEvaluator(pipe, prof, shapes)
	if err != nil {
		t.Fatal(err)
	}

	a := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 4}},
		RetrievalServers: 16,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
		IterativeBatch:   4,
	}
	b := a
	b.Groups = []GroupSchedule{{Stages: []int{1}, Chips: 8, Batch: 8, Replicas: []int{2}}}
	b.DecodeChips, b.DecodeBatch, b.DecodeReplicas = 32, 256, 8
	c := a
	c.IterativeBatch = 16
	d := a
	d.Groups = []GroupSchedule{{Stages: []int{1}, Chips: 8, Batch: 4}}

	policies := []BatchPolicy{PolicyFIFO, PolicyBucketed, PolicySorted}
	var stalls []float64
	for pass, sched := range []Schedule{a, b, a, c, d} {
		gen, pre := len(ev.memo.gen), len(ev.memo.prefix)
		// Compile under the last policy first so every Restamp below moves
		// the policy away from the one compiled.
		sched.FormPolicy = PolicySorted
		if _, ok := ev.Evaluate(sched); !ok {
			t.Fatalf("pass %d: schedule infeasible", pass)
		}
		for _, pol := range policies {
			got, ok := ev.Restamp(pol)
			if !ok {
				t.Fatalf("pass %d: restamp %v failed", pass, pol)
			}
			stamped := sched
			stamped.FormPolicy = pol
			plan, err := Compile(pipe, stamped, prof)
			if err != nil {
				t.Fatal(err)
			}
			if want := plan.ShapeMetrics(shapes); got != want {
				t.Errorf("pass %d policy %v: restamped %+v, compiled plan prices %+v", pass, pol, got, want)
			}
			if pol == PolicyFIFO {
				stalls = append(stalls, plan.Iter.StallPerRequest)
			}
		}
		if pass == 2 && (len(ev.memo.gen) != gen || len(ev.memo.prefix) != pre) {
			t.Errorf("second pass over A grew the memo: decode %d -> %d, prefix %d -> %d",
				gen, len(ev.memo.gen), pre, len(ev.memo.prefix))
		}
	}
	if stalls[0] <= 0 || stalls[3] == stalls[0] {
		t.Errorf("stalls %v: A must stall, and C must stall differently", stalls)
	}

	// An infeasible schedule leaves nothing to restamp.
	bad := a
	bad.DecodeBatch = 0
	if _, ok := ev.Evaluate(bad); ok {
		t.Fatal("decode batch 0 evaluated")
	}
	if _, ok := ev.Restamp(PolicyFIFO); ok {
		t.Error("restamp after an infeasible Evaluate succeeded")
	}
	if _, ok := ev.Evaluate(a); !ok {
		t.Fatal("schedule A infeasible")
	}
	if _, ok := ev.Restamp(BatchPolicy(7)); ok {
		t.Error("restamp to an unknown policy succeeded")
	}
}

// TestEvaluatorUnshaped: with an empty sample Evaluate returns the
// compiled constant-shape metrics, and a restamp leaves them unchanged.
func TestEvaluatorUnshaped(t *testing.T) {
	plan, prof, pipe := mustCompile(t, ragschema.CaseIV(8e9), caseIVSchedule())
	ev, err := NewEvaluator(pipe, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := ev.Evaluate(caseIVSchedule()); !ok || m != plan.Metrics {
		t.Fatalf("Evaluate %+v (ok %v), Compile %+v", m, ok, plan.Metrics)
	}
	if m, ok := ev.Restamp(PolicyBucketed); !ok || m != plan.Metrics {
		t.Fatalf("Restamp %+v (ok %v), Compile %+v", m, ok, plan.Metrics)
	}
}
