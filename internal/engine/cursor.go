package engine

import "rago/internal/trace"

// DecodeCursor is one sequence's position in its decode slot: the §5.3
// decode loop on iterative plans (decode to each trigger, park for a
// retrieval+prefix round, resume), a single generation otherwise. Both
// executors hold one per request and ask it when the sequence next stops,
// so the trigger synthesis, clamping and remainder arithmetic exist once.
type DecodeCursor struct {
	plan              *Plan
	promptTok, outTok int   // request shape, trace encoding (0 = schema)
	out               int   // resolved generation length
	triggers          []int // remaining trigger positions
	loop              bool  // runs the §5.3 loop
	tok               int   // tokens decoded so far
	parkedAt          float64

	// Rounds counts the parks so far; Stall accumulates the parked time.
	Rounds int
	Stall  float64
}

// DecodeCursor builds request r's cursor. On iterative plans a request
// without recorded triggers gets deterministic positions seeded by its ID.
func (p *Plan) DecodeCursor(r trace.Request) DecodeCursor {
	c := DecodeCursor{plan: p, promptTok: r.PromptTokens, outTok: r.OutputTokens,
		out: p.Steps[p.DecodeIdx].Stage.OutTokens}
	if r.OutputTokens > 0 {
		c.out = r.OutputTokens
	}
	if p.Round != nil {
		c.triggers = r.Triggers
		if c.triggers == nil {
			c.triggers = trace.TriggersFor(r.ID, p.Round.RoundsPerSeq, c.out)
		}
		c.loop = len(c.triggers) > 0
	}
	return c
}

// OutTokens is the request's generation length.
func (c *DecodeCursor) OutTokens() int { return c.out }

// Next returns when a sequence decoding from virtual time now next stops,
// and whether that stop parks it at a trigger (false: generation ends).
// A generation without a loop holds the slot for the request's own
// shape-paced generation time (the precompiled constant when unshaped).
func (c *DecodeCursor) Next(now float64) (at float64, park bool) {
	if !c.loop {
		return now + c.plan.GenTimeForShape(c.promptTok, c.outTok), false
	}
	if len(c.triggers) == 0 {
		return now + float64(c.out-c.tok)*c.plan.Round.DecodeStep, false
	}
	return now + float64(c.trigger()-c.tok)*c.plan.Round.DecodeStep, true
}

// Park records the sequence parking at virtual time at, at the trigger
// Next reported, and returns the round's 1-based number.
func (c *DecodeCursor) Park(at float64) int {
	c.tok = c.trigger()
	c.triggers = c.triggers[1:]
	c.parkedAt = at
	c.Rounds++
	return c.Rounds
}

// Resume records the round finishing at virtual time at and returns the
// time the sequence spent parked.
func (c *DecodeCursor) Resume(at float64) float64 {
	d := at - c.parkedAt
	c.Stall += d
	return d
}

// trigger is the next trigger position clamped into [tok, out]: decode
// only moves forward, so an out-of-range or out-of-order recorded trigger
// parks at the nearest legal token instead of rewinding time.
func (c *DecodeCursor) trigger() int {
	return max(min(c.triggers[0], c.out), c.tok)
}
