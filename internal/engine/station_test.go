package engine

import (
	"math"
	"slices"
	"testing"

	"rago/internal/ragschema"
	"rago/internal/trace"
)

// iterativeRerankPlan compiles Case III with a reranker collocated with
// the prefix on group 0, so that group's station serves three slots:
// rerank, prefix, and the decode loop's iterative prefix round.
func iterativeRerankPlan(t *testing.T) *Plan {
	t.Helper()
	schema := ragschema.CaseIII(8e9, 4)
	schema.RerankerParams = 120e6
	schema.RerankCandidates = 16
	plan, _, _ := mustCompile(t, schema, Schedule{
		Groups:           []GroupSchedule{{Stages: []int{1, 2}, Chips: 16, Batch: 4}},
		RetrievalServers: 16,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
		IterativeBatch:   4,
	})
	return plan
}

// TestStationCrossStagePick: on a resource with collocated stages plus an
// iterative round slot, the oldest ripe head wins, and an under-filled
// stage — even one holding the oldest entry — waits for its flush
// deadline, then ships partial with the deadline as its formable time.
func TestStationCrossStagePick(t *testing.T) {
	plan := iterativeRerankPlan(t)
	rerank, prefix, iter := 1, plan.PrefixIdx, plan.IterPrefixSlot()
	if got := plan.ResourceStages(0); !slices.Equal(got, []int{rerank, prefix, iter}) {
		t.Fatalf("group 0 serves %v, want rerank, prefix, iter-prefix", got)
	}
	s := NewStation[int](plan, 0, 1.0, nil)
	s.Push(rerank, 100, 0.0, 0, nil) // oldest, but one short of a batch
	for i := 0; i < 4; i++ {
		s.Push(prefix, 10+i, 0.5+0.1*float64(i), 0, nil)
		s.Push(iter, 20+i, 0.2+0.1*float64(i), 0, nil)
	}

	b, ok := s.Dispatch(0.9)
	if !ok || b.Slot != iter || !slices.Equal(b.Members, []int{20, 21, 22, 23}) || b.FormV != 0.5 {
		t.Fatalf("first dispatch: ok=%v slot=%d members=%v formV=%v; want the iterative round (oldest ripe head) formable at 0.5",
			ok, b.Slot, b.Members, b.FormV)
	}
	if b.Latency != plan.StepLatency(iter, 4) || b.DoneAt != nil || b.Credits != nil || b.Pad != 0 {
		t.Errorf("round batch priced %+v, want the plain full-batch latency", b)
	}
	b, ok = s.Dispatch(0.9)
	if !ok || b.Slot != prefix || !slices.Equal(b.Members, []int{10, 11, 12, 13}) {
		t.Fatalf("second dispatch: ok=%v slot=%d members=%v; want the full prefix batch", ok, b.Slot, b.Members)
	}
	if _, ok := s.Dispatch(0.9); ok {
		t.Fatal("under-filled rerank dispatched before its flush deadline")
	}
	if at, ok := s.Deadline(); !ok || at != 1.0 {
		t.Fatalf("Deadline = %v, %v; want the rerank head's 1.0", at, ok)
	}
	b, ok = s.Dispatch(1.0)
	if !ok || b.Slot != rerank || !slices.Equal(b.Members, []int{100}) || b.FormV != 1.0 {
		t.Fatalf("deadline dispatch: ok=%v slot=%d members=%v formV=%v; want the partial rerank batch at 1.0",
			ok, b.Slot, b.Members, b.FormV)
	}
	if b.Latency != plan.StepLatency(rerank, 1) {
		t.Errorf("partial batch latency %v, want the re-profiled %v", b.Latency, plan.StepLatency(rerank, 1))
	}
	if _, ok := s.Deadline(); ok {
		t.Error("drained station still reports a deadline")
	}
}

// TestStationSelectiveTake: a bucketed prefix takes the fullest bucket out
// of the middle of its queue; the survivors keep their FIFO order, and the
// batch is priced at its members' padded maximum.
func TestStationSelectiveTake(t *testing.T) {
	sched := caseISchedule()
	sched.Groups[0].Batch = 3
	sched.FormPolicy = PolicyBucketed
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), sched)
	s := NewStation[int](plan, 0, 10, nil)
	prompts := []int{3000, 400, 500, 2500, 450, 480}
	for i, pt := range prompts {
		s.Push(plan.PrefixIdx, i, 1.0+0.1*float64(i), pt, nil)
	}
	b, ok := s.Dispatch(1.6)
	if !ok || !slices.Equal(b.Members, []int{1, 2, 4}) {
		t.Fatalf("dispatch: ok=%v members=%v; want the 512-bucket's FIFO run 1, 2, 4", ok, b.Members)
	}
	if b.Tok != 400+500+450 || b.Pad != 3*512 {
		t.Errorf("pad accounting tok=%d pad=%d, want %d/%d", b.Tok, b.Pad, 1350, 3*512)
	}
	if want := plan.StepLatencyShaped(plan.PrefixIdx, 3, Shape{PromptTokens: 512}); b.Latency != want {
		t.Errorf("latency %v, want the padded-max price %v", b.Latency, want)
	}
	q := &s.queues[0]
	var survivors []int
	var enq []float64
	for i := 0; i < q.Len(); i++ {
		survivors = append(survivors, q.buf[q.head+i].m)
		enq = append(enq, q.EnqueuedAt(i))
	}
	if !slices.Equal(survivors, []int{0, 3, 5}) || !slices.Equal(enq, []float64{1.0, 1.0 + 0.1*3, 1.0 + 0.1*5}) {
		t.Fatalf("survivors %v enqueued at %v; want 0, 3, 5 in FIFO order", survivors, enq)
	}
}

// TestDecodeCursorClamp: decode only moves forward. A recorded trigger
// past the output length parks at the output length, an out-of-order one
// parks at the current token, and the remainder decodes from there.
func TestDecodeCursorClamp(t *testing.T) {
	plan := iterativeRerankPlan(t)
	step := plan.Round.DecodeStep
	c := plan.DecodeCursor(trace.Request{ID: 7, OutputTokens: 100, Triggers: []int{40, 150, 20}})
	if c.OutTokens() != 100 {
		t.Fatalf("OutTokens = %d, want the request's 100", c.OutTokens())
	}
	at, park := c.Next(1)
	if !park || at != 1+40*step {
		t.Fatalf("first stop %v park=%v, want a park at token 40 (%v)", at, park, 1+40*step)
	}
	if r := c.Park(at); r != 1 {
		t.Fatalf("round = %d, want 1", r)
	}
	t1 := at + 0.5
	if d := c.Resume(t1); d != t1-at {
		t.Fatalf("parked %v, want %v", d, t1-at)
	}
	stall := t1 - at
	// 150 > 100: parks at the output length.
	at, park = c.Next(t1)
	if !park || at != t1+float64(100-40)*step {
		t.Fatalf("over-length trigger stopped at %v park=%v, want a park at token 100 (%v)", at, park, t1+60*step)
	}
	c.Park(at)
	t2 := at + 0.25
	stall += c.Resume(t2)
	// 20 < 100: parks at the current token, no time decoded.
	at, park = c.Next(t2)
	if !park || at != t2 {
		t.Fatalf("out-of-order trigger stopped at %v park=%v, want a park at the current token (%v)", at, park, t2)
	}
	c.Park(at)
	stall += c.Resume(t2 + 0.125)
	at, park = c.Next(t2 + 0.125)
	if park || at != t2+0.125 {
		t.Fatalf("end of generation at %v park=%v, want done with no tokens left (%v)", at, park, t2+0.125)
	}
	if c.Rounds != 3 || c.Stall != stall || math.Abs(stall-0.875) > 1e-12 {
		t.Errorf("rounds=%d stall=%v, want 3 and the parked sum %v (~0.875)", c.Rounds, c.Stall, stall)
	}

	// Missing triggers synthesize deterministically from the request ID.
	c = plan.DecodeCursor(trace.Request{ID: 7})
	if want := trace.TriggersFor(7, plan.Round.RoundsPerSeq, plan.Steps[plan.DecodeIdx].Stage.OutTokens); !slices.Equal(c.triggers, want) {
		t.Errorf("synthesized triggers %v, want %v", c.triggers, want)
	}

	// Without a decode loop the sequence holds its slot for its own
	// generation time in one stop.
	flat, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())
	c = flat.DecodeCursor(trace.Request{ID: 1, PromptTokens: 900, OutputTokens: 64})
	if at, park := c.Next(2); park || at != 2+flat.GenTimeForShape(900, 64) {
		t.Errorf("single-retrieval stop %v park=%v, want done at %v", at, park, 2+flat.GenTimeForShape(900, 64))
	}
}
