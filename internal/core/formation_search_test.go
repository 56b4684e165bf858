package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/ragschema"
)

// formationShapes is a heavy-tailed sample: mostly short prompts plus a
// long tail, the regime where formation policy and chunking matter.
func formationShapes() []engine.Shape {
	var out []engine.Shape
	for i := 0; i < 28; i++ {
		out = append(out, engine.Shape{PromptTokens: 200 + (i*41)%320, OutputTokens: 192 + (i*29)%128})
	}
	for i := 0; i < 4; i++ {
		out = append(out, engine.Shape{PromptTokens: 2200 + i*400, OutputTokens: 256})
	}
	return out
}

// TestFormationSearchMatchesExhaustive extends the branch-and-bound
// acceptance test to the formation dimensions: with per-request shapes,
// a policy sweep, and chunk quanta all active, the pruned search must
// return a frontier identical to the NoPrune exhaustive reference. The
// plan-level bounds are relaxed for shaped costing (min-padded envelope,
// per-quantum chunk floors, min-context decode envelope); any divergence
// here means a relaxation stopped being admissible.
func TestFormationSearchMatchesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema ragschema.Schema
	}{
		{"caseI", ragschema.CaseI(8e9, 1)},
		{"caseV", ragschema.CaseV(8e9, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(hw.DefaultCluster())
			opts.NormalizeChips = 64
			opts.Shapes = formationShapes()
			opts.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
			opts.ChunkQuanta = []int{0, 256}

			exOpts := opts
			exOpts.NoPrune = true
			exhaustive, err := NewOptimizer(tc.schema, exOpts)
			if err != nil {
				t.Fatal(err)
			}
			want := exhaustive.Optimize()

			pruned, err := NewOptimizer(tc.schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := pruned.Optimize()

			if len(want) == 0 {
				t.Fatal("exhaustive formation frontier is empty")
			}
			if len(got) != len(want) {
				t.Fatalf("frontier size diverged: pruned %d vs exhaustive %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Metrics != want[i].Metrics || !reflect.DeepEqual(got[i].Item, want[i].Item) {
					t.Errorf("point %d diverged:\npruned     %+v %v\nexhaustive %+v %v",
						i, got[i].Item, got[i].Metrics, want[i].Item, want[i].Metrics)
				}
			}

			// The dimensions must actually engage: on a heavy-tailed mix the
			// frontier should hold at least one non-FIFO or chunked point
			// (bucketed formation weakly dominates FIFO per schedule here).
			nonDefault := false
			for _, p := range want {
				if p.Item.FormPolicy != engine.PolicyFIFO || p.Item.ChunkQuantum > 0 {
					nonDefault = true
					break
				}
			}
			if !nonDefault {
				t.Error("no frontier point uses a formation policy or chunking — the dimensions never engaged")
			}
		})
	}
}

// TestFormationSearchShapedScoring: with shapes but the default
// (FIFO-only) formation dimensions, the search scores candidates by
// shape-weighted metrics — the frontier QPS must sit below the
// constant-shape frontier's on the same heavy-tailed sample.
func TestFormationSearchShapedScoring(t *testing.T) {
	opts := DefaultOptions(hw.DefaultCluster())
	opts.NormalizeChips = 64
	plain, err := NewOptimizer(ragschema.CaseI(8e9, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	plainFront := plain.Optimize()

	opts.Shapes = formationShapes()
	shaped, err := NewOptimizer(ragschema.CaseI(8e9, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	shapedFront := shaped.Optimize()
	if len(plainFront) == 0 || len(shapedFront) == 0 {
		t.Fatal("empty frontier")
	}
	maxQPS := func(front []SchedulePoint) float64 {
		best := 0.0
		for _, p := range front {
			if p.Metrics.QPS > best {
				best = p.Metrics.QPS
			}
		}
		return best
	}
	if !(maxQPS(shapedFront) < maxQPS(plainFront)) {
		t.Errorf("heavy-tailed shaped frontier QPS %.2f should undercut constant-shape %.2f",
			maxQPS(shapedFront), maxQPS(plainFront))
	}
}

// formationCases and formationOptions repeat the configuration of
// TestFormationSearchMatchesExhaustive: a linear pipeline and a
// multi-source fan-out, searched over every formation dimension (three
// policies, chunking off and at 256 tokens) on the heavy-tailed sample.
func formationCases() []struct {
	name   string
	schema ragschema.Schema
} {
	return []struct {
		name   string
		schema ragschema.Schema
	}{
		{"caseI", ragschema.CaseI(8e9, 1)},
		{"caseV", ragschema.CaseV(8e9, 2)},
	}
}

func formationOptions() Options {
	opts := DefaultOptions(hw.DefaultCluster())
	opts.NormalizeChips = 64
	opts.Shapes = formationShapes()
	opts.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
	opts.ChunkQuanta = []int{0, 256}
	return opts
}

// TestFormationSearchGolden pins the shaped search's output bit for bit:
// the frontier (exact metrics and the schedule each point carries) and the
// search statistics, one golden file per workload, on one worker so the
// pruning counts do not depend on goroutine scheduling. The exhaustive
// differential test cannot catch a pricing shortcut that both the pruned
// and the NoPrune search share; this one can. Every point's metrics must
// also equal a freshly compiled plan's ShapeMetrics at that schedule.
// UPDATE_GOLDEN=1 rewrites the files.
func TestFormationSearchGolden(t *testing.T) {
	for _, tc := range formationCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := formationOptions()
			opts.Workers = 1
			o, err := NewOptimizer(tc.schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			front := o.Optimize()

			var b strings.Builder
			for _, p := range front {
				m := p.Metrics
				fmt.Fprintf(&b, "%v %v %v %v %v %+v\n", m.TTFT, m.TPOT, m.QPS, m.QPSPerChip, m.Recall, p.Item)
			}
			fmt.Fprintf(&b, "%#v\n", o.SearchStats())
			got := b.String()

			path := filepath.Join("testdata", "formation_"+tc.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d diverged from %s:\ngot  %s\nwant %s", i+1, path, gl[i], wl[i])
					}
				}
				t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
			}

			for i, p := range front {
				plan, err := engine.Compile(o.Pipe, p.Item, o.Prof)
				if err != nil {
					t.Fatalf("point %d does not compile: %v", i, err)
				}
				want := plan.ShapeMetrics(opts.Shapes)
				want.QPSPerChip = want.QPS / float64(opts.NormalizeChips)
				if p.Metrics != want {
					t.Errorf("point %d metrics %+v, compiled plan prices %+v", i, p.Metrics, want)
				}
			}
		})
	}
}

// TestOptimizerRejectsInvalidFormationOptions: an unknown policy or a
// negative chunk quantum is a configuration error, not a dimension whose
// every stamping silently fails to compile.
func TestOptimizerRejectsInvalidFormationOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Options)
		want string
	}{
		{"policy", func(o *Options) { o.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.BatchPolicy(7)} }, "unknown batch-formation policy 7"},
		{"negative policy", func(o *Options) { o.Policies = []engine.BatchPolicy{-1} }, "unknown batch-formation policy -1"},
		{"quantum", func(o *Options) { o.ChunkQuanta = []int{0, -256} }, "negative chunk quantum -256"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := formationOptions()
			tc.edit(&opts)
			_, err := NewOptimizer(ragschema.CaseI(8e9, 1), opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewOptimizer error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
