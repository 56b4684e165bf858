package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one harness-side interval around a call into a program layer.
// Names are "<layer>.<function>", so the layer is everything before the
// first dot. Parent indexes the enclosing span (-1 at the top level); Run
// numbers the harness phase (set-up repetition, replay, per-layer timing)
// the span belongs to.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Run    int
}

// recorder keeps spans in memory. The harness calls layers from a single
// goroutine, so nesting is a stack. A disabled recorder records nothing
// and costs one branch per call.
type recorder struct {
	on    bool
	t0    time.Time
	run   int
	spans []span
	stack []int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(name string) func() {
	if !r.on {
		return func() {}
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0), Parent: parent, Run: r.run})
	r.stack = append(r.stack, id)
	return func() {
		r.spans[id].End = time.Since(r.t0)
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// layers lists the program layers the harness calls into; self-time
// metrics are reported for each, zero where a workload does not call it.
var layers = []string{"vectordb", "retrieval", "core", "engine", "cache", "trace", "sim", "serve", "control"}

// selfTimes sums, per layer, each span's duration minus the part covered
// by its direct children. Spans of the harness itself (layer "harness")
// only parent other spans and are not reported.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration, len(layers))
	for i, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End - s.Start - child[i]
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event document (the
// format the program's own obs exporter emits): one complete ("X") event
// per span, one thread per harness phase, timestamps in microseconds.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		evs = append(evs, event{
			Name: s.Name, Cat: layer, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Run,
			Args: map[string]any{"id": i, "parent": s.Parent, "run": s.Run},
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
}
