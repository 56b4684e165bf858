package engine

import (
	"math"

	"rago/internal/cache"
)

// Station is the batch-dispatch state machine of one serial resource of a
// plan: it owns the resource's stage queues (iterative round slots
// included) and performs the whole dispatch step — pick the stage whose
// oldest ripe head has waited longest, take its batch, price it. Both
// executors drive one Station per resource: the discrete-event simulator
// from its event heap, the live runtime from the resource's worker
// goroutine. A Station is not safe for concurrent use; exactly one
// goroutine may touch it.
type Station[T any] struct {
	plan   *Plan
	slots  []int // slot indices served, Plan.ResourceStages order
	queues []stationQueue[T]
	forms  []Former // one per slot: FIFO, or the plan's policy at the prefix
	cache  *cache.Cache

	taken   []stationEntry[T] // scratch, reused across dispatches
	members []T
	prompts []int
	credits []int
	doneAt  []float64
}

type stationEntry[T any] struct {
	m      T
	enq    float64
	prompt int
	chunks []int
}

// stationQueue is one stage's FIFO with a consumed-head offset; it is the
// FormView the slot's Former decides over.
type stationQueue[T any] struct {
	buf  []stationEntry[T]
	head int
}

func (q *stationQueue[T]) Len() int                 { return len(q.buf) - q.head }
func (q *stationQueue[T]) EnqueuedAt(i int) float64 { return q.buf[q.head+i].enq }
func (q *stationQueue[T]) PromptTokens(i int) int   { return q.buf[q.head+i].prompt }

// Batch is one dispatched, priced batch. Its slices alias Station scratch
// and stay valid until the next Dispatch.
type Batch[T any] struct {
	// Slot is the stage slot served (Plan.StepAt indexes it).
	Slot int
	// Members are the batch members in dispatch order.
	Members []T
	// FormV is the exact virtual time the batch became formable.
	FormV float64
	// Latency is the batch's service time.
	Latency float64
	// DoneAt holds each member's completion offset from service start
	// under chunked prefill; nil when every member finishes at Latency.
	DoneAt []float64
	// Credits holds each member's prefix-cache credit in tokens (-1 for
	// a member not looked up); nil when no member was looked up.
	Credits []int
	// Tok and Pad are the effective and padded prompt tokens of a shaped
	// or chunked prefix batch (0 otherwise); Chunks its chunk count under
	// chunked prefill.
	Tok, Pad, Chunks int
}

// NewStation builds the dispatch state machine of resource ri. flush is
// the executor's flush timeout; c is the reuse cache whose prefix tier
// prefix batches consult (nil = no cache).
func NewStation[T any](p *Plan, ri int, flush float64, c *cache.Cache) *Station[T] {
	slots := p.ResourceStages(ri)
	s := &Station[T]{plan: p, slots: slots, cache: c,
		queues: make([]stationQueue[T], len(slots)), forms: make([]Former, len(slots))}
	for i, idx := range slots {
		s.forms[i] = Former{Policy: PolicyFIFO, Batch: p.StepAt(idx).Batch}
		if idx == p.PrefixIdx {
			s.forms[i] = p.Former()
		}
		s.forms[i].Flush = flush
	}
	return s
}

// Push queues member m at stage slot idx, which it entered at virtual time
// enq with the given prompt length (0 = schema constant) and retrieved
// chunk IDs. It returns the slot's queue depth.
func (s *Station[T]) Push(idx int, m T, enq float64, prompt int, chunks []int) int {
	for i, sl := range s.slots {
		if sl != idx {
			continue
		}
		q := &s.queues[i]
		// Compact a mostly-consumed queue before growing it, so a backlog
		// that never fully drains cannot grow the storage without bound.
		if q.head >= 64 && 2*q.head >= len(q.buf) {
			n := copy(q.buf, q.buf[q.head:])
			clear(q.buf[n:])
			q.buf, q.head = q.buf[:n], 0
		}
		q.buf = append(q.buf, stationEntry[T]{m, enq, prompt, chunks})
		return q.Len()
	}
	panic("engine: station does not serve slot")
}

// Deadline returns the earliest flush deadline among the queue heads;
// ok is false when every queue is empty.
func (s *Station[T]) Deadline() (at float64, ok bool) {
	at = math.Inf(1)
	for i := range s.queues {
		if q := &s.queues[i]; q.Len() > 0 {
			if d := q.EnqueuedAt(0) + s.forms[i].Flush; d < at {
				at, ok = d, true
			}
		}
	}
	return at, ok
}

// Dispatch performs one dispatch step at virtual time now: among slots
// whose Former finds the queue ripe, the one with the oldest waiting head
// (earliest slot on ties) forms its batch, which is taken off the queue
// and priced. ok is false when nothing is ripe.
func (s *Station[T]) Dispatch(now float64) (b Batch[T], ok bool) {
	best, n := -1, 0
	bestAge := math.Inf(-1)
	var sel []int
	for i := range s.queues {
		q := &s.queues[i]
		if q.Len() == 0 {
			continue
		}
		headAge := now - q.EnqueuedAt(0)
		fn, fv, fs := s.forms[i].Form(q, now)
		if fn > 0 && headAge > bestAge {
			best, bestAge, n, b.FormV, sel = i, headAge, fn, fv, fs
		}
	}
	if best < 0 {
		return b, false
	}
	s.take(&s.queues[best], n, sel)
	b.Slot = s.slots[best]
	b.Latency = s.plan.StepLatency(b.Slot, n)
	s.members = s.members[:0]
	for _, e := range s.taken {
		s.members = append(s.members, e.m)
	}
	b.Members = s.members
	if b.Slot == s.plan.PrefixIdx {
		s.pricePrefix(&b)
	}
	return b, true
}

// take moves n entries off q into s.taken: the FIFO prefix when sel is
// nil, else the ascending window positions sel, compacting the survivors
// in place so they keep their FIFO order.
func (s *Station[T]) take(q *stationQueue[T], n int, sel []int) {
	w := q.buf[q.head:]
	s.taken = s.taken[:0]
	if sel == nil {
		s.taken = append(s.taken, w[:n]...)
		clear(w[:n])
		q.head += n
	} else {
		k, dst := 0, sel[0]
		for pos := sel[0]; pos < len(w); pos++ {
			if k < len(sel) && pos == sel[k] {
				s.taken = append(s.taken, w[pos])
				k++
				continue
			}
			w[dst] = w[pos]
			dst++
		}
		clear(w[dst:])
		q.buf = q.buf[:q.head+dst]
	}
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// pricePrefix prices a prefix batch: each tagged member consults the
// prefix cache (Access both queries and admits, so lookups happen in
// dispatch order) and prefills only its uncached suffix; the batch then
// runs as quantum-sized chunks under chunked prefill, or at its members'
// padded maximum prompt when any member is shaped, with the padding
// accounted.
func (s *Station[T]) pricePrefix(b *Batch[T]) {
	p := s.plan
	consult, looked := s.cache.PrefixOn(), false
	s.prompts, s.credits = s.prompts[:0], s.credits[:0]
	for _, e := range s.taken {
		pt, credit := e.prompt, -1
		if consult && len(e.chunks) > 0 {
			base := pt
			if base <= 0 {
				base = p.Pipe.Schema.PrefixTokens
			}
			credit = s.cache.Access(e.chunks, base)
			pt = p.EffectivePrompt(pt, credit)
			looked = true
		}
		s.prompts = append(s.prompts, pt)
		s.credits = append(s.credits, credit)
	}
	if looked {
		b.Credits = s.credits
	}
	if q := p.Sched.ChunkQuantum; q > 0 {
		s.doneAt, b.Latency, b.Tok, b.Pad = p.ChunkPrefill(s.prompts, s.doneAt)
		b.DoneAt, b.Chunks = s.doneAt, b.Pad/q
	} else if sh, tok := p.PrefixBatchShape(s.prompts); sh != (Shape{}) {
		b.Latency = p.StepLatencyShaped(b.Slot, len(s.prompts), sh)
		b.Tok, b.Pad = tok, len(s.prompts)*sh.PromptTokens
	}
}
