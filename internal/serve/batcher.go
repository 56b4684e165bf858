package serve

import (
	"time"

	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/pipeline"
)

// resource is one serial execution unit of the compiled plan — an XPU
// placement group or a CPU retrieval tier. Its engine.Station owns the
// member stages' queues and the whole dispatch step (the same state
// machine the discrete-event simulator drives); the resource paces each
// batch's service on the drift-free virtual ledger. Exactly one goroutine
// (run) touches the station and ledger, so the only shared state is the
// inbox channel and the metrics collector.
type resource struct {
	dp        *dataplane
	name      string
	inbox     chan item
	st        *engine.Station[*request]
	busyUntil float64 // virtual time the resource frees up
}

// run is the worker loop: drain arrivals, dispatch the most overdue ripe
// batch, execute it, repeat; park when nothing is ready.
func (r *resource) run() {
	for {
		r.drain()
		b, ok := r.st.Dispatch(r.dp.clock.now())
		if !ok {
			if !r.park() {
				return
			}
			continue
		}
		r.exec(b)
	}
}

// drain moves every waiting inbox entry into its stage queue.
func (r *resource) drain() {
	for {
		select {
		case it := <-r.inbox:
			r.enqueue(it)
		default:
			return
		}
	}
}

func (r *resource) enqueue(it item) {
	depth := r.st.Push(it.idx, it.q, it.at, it.q.promptTok, it.q.chunkIDs)
	r.dp.coll.enqueued(it.idx, depth)
}

// park blocks until new work arrives, a flush deadline passes, or the
// dataplane shuts down. Returns false on shutdown.
func (r *resource) park() bool {
	var timerC <-chan time.Time
	if deadline, ok := r.st.Deadline(); ok {
		timer := time.NewTimer(max(time.Until(r.dp.clock.wallAt(deadline)), 0))
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case it := <-r.inbox:
		r.enqueue(it)
		return true
	case <-timerC:
		return true
	case <-r.dp.quit:
		return false
	}
}

// exec serves one dispatched batch: advance the ledger from the batch's
// formable time, sleep out the scaled service time (running real
// retrieval concurrently when configured), then hand every member to its
// next stage — under chunked prefill each member at its own chunk
// boundary, while the resource stays busy until the last chunk.
func (r *resource) exec(b engine.Batch[*request]) {
	dp := r.dp
	idx, n, lat, batch := b.Slot, len(b.Members), b.Latency, b.Members
	if dp.bus.Active() {
		for i, credit := range b.Credits {
			if credit < 0 {
				continue
			}
			kind := obs.KindCacheMiss
			if credit > 0 {
				kind = obs.KindCacheHit
			}
			dp.bus.Publish(obs.Event{Kind: kind, T: b.FormV, Req: batch[i].id,
				Slot: idx, Stage: dp.slotName[idx], Track: r.name, N: credit})
		}
	}
	start := maxf(r.busyUntil, b.FormV)
	done := start + lat
	r.busyUntil = done

	if b.DoneAt != nil {
		for i, q := range batch {
			md := start + b.DoneAt[i]
			dp.clock.sleepUntil(md)
			if dp.bus.Active() {
				dp.bus.Publish(obs.Event{Kind: obs.KindStageStart, T: start, Req: q.id,
					Slot: idx, Stage: dp.slotName[idx], Track: r.name, N: n})
				dp.bus.Publish(obs.Event{Kind: obs.KindStageFinish, T: md, Req: q.id,
					Slot: idx, Stage: dp.slotName[idx], Track: r.name, N: n, Dur: b.DoneAt[i]})
			}
			dp.advance(q, idx, md)
		}
		dp.coll.batchServed(idx, n, dp.plan.StepAt(idx).Batch, b.Tok, b.Pad, b.Chunks)
		return
	}

	var search chan searchResult
	sharded := dp.opts.Sharded
	if dp.plan.StepAt(idx).Stage.Kind == pipeline.KindRetrieval && dp.opts.searchOn() {
		search = make(chan searchResult, 1)
		go dp.runSearch(batch, search)
		if sharded != nil && dp.bus.Active() {
			dp.bus.Publish(obs.Event{Kind: obs.KindShardScatter, T: start, Req: batch[0].id,
				Slot: idx, Stage: dp.slotName[idx], Track: r.name, N: sharded.EffectiveFanout(dp.plan.Sched.ShardFanout)})
		}
	}
	dp.clock.sleepUntil(done)
	if search != nil {
		res := <-search
		if res.err != nil {
			dp.onSearchErr(res.err)
		}
		if sharded != nil && dp.bus.Active() {
			if res.fellBack > 0 || res.lost > 0 {
				dp.bus.Publish(obs.Event{Kind: obs.KindShardFallback, T: done, Req: batch[0].id,
					Slot: idx, Stage: dp.slotName[idx], Track: r.name, N: res.fellBack + res.lost})
			}
			dp.bus.Publish(obs.Event{Kind: obs.KindShardGather, T: done, Req: batch[0].id,
				Slot: idx, Stage: dp.slotName[idx], Track: r.name, N: sharded.EffectiveFanout(dp.plan.Sched.ShardFanout), Dur: lat})
		}
	}
	dp.coll.batchServed(idx, n, dp.plan.StepAt(idx).Batch, b.Tok, b.Pad, 0)
	if dp.bus.Active() {
		for _, q := range batch {
			dp.bus.Publish(obs.Event{Kind: obs.KindStageStart, T: start, Req: q.id,
				Slot: idx, Stage: dp.slotName[idx], Track: r.name, N: n})
			dp.bus.Publish(obs.Event{Kind: obs.KindStageFinish, T: done, Req: q.id,
				Slot: idx, Stage: dp.slotName[idx], Track: r.name, N: n, Dur: lat})
		}
	}
	for _, q := range batch {
		dp.advance(q, idx, done)
	}
}
