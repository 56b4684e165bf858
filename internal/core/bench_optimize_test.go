package core

import (
	"math"
	"math/rand"
	"testing"

	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/ragschema"
)

// BenchmarkOptimizeCaseIV measures the full schedule search on the richest
// non-iterative workload (rewriter + retrieval + reranker) with and
// without the stageperf memoization layers — the engine's hot path. The
// memoized variant is the production configuration; the no-memo variant
// re-runs the underlying roofline/vector-search models for every one of
// the (stage, chips, batch, replicas) tuples the search revisits, which is
// what every Optimize call paid before the caches existed.
func BenchmarkOptimizeCaseIV(b *testing.B) {
	run := func(b *testing.B, noMemo bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o, err := NewOptimizer(ragschema.CaseIV(8e9), DefaultOptions(hw.DefaultCluster()))
			if err != nil {
				b.Fatal(err)
			}
			o.Prof.NoMemo = noMemo
			if front := o.Optimize(); len(front) == 0 {
				b.Fatal("empty frontier")
			}
		}
	}
	b.Run("memoized", func(b *testing.B) { run(b, false) })
	b.Run("no-memo", func(b *testing.B) { run(b, true) })
}

// BenchmarkOptimizeCaseV measures the search on the iterative-retrieval
// workload, whose per-candidate IterativePlan probe makes the inner loop
// shape different from Case IV, with branch-and-bound pruning on (the
// production path) and off (the exhaustive reference the differential test
// compares against).
func BenchmarkOptimizeCaseV(b *testing.B) {
	run := func(b *testing.B, noPrune bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts := DefaultOptions(hw.DefaultCluster())
			opts.NoPrune = noPrune
			o, err := NewOptimizer(ragschema.CaseV(8e9, 2), opts)
			if err != nil {
				b.Fatal(err)
			}
			if front := o.Optimize(); len(front) == 0 {
				b.Fatal("empty frontier")
			}
		}
	}
	b.Run("pruned", func(b *testing.B) { run(b, false) })
	b.Run("exhaustive", func(b *testing.B) { run(b, true) })
}

// stratifiedShapes is the n-shape planning sample of lognormal prompt and
// output length distributions: the midpoint quantile of each of n equal
// strata, capped at the maximum, with prompts and outputs paired in a
// fixed shuffled order. It matches the sample perfbench's
// case4-shaped-cold workload plans on.
func stratifiedShapes(n int, promptMedian, promptSigma float64, promptMax int, outMedian, outSigma float64, outMax int) []engine.Shape {
	q := func(median, sigma float64, max, i int) int {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		return min(max, int(math.Round(median*math.Exp(sigma*z))))
	}
	pair := rand.New(rand.NewSource(1)).Perm(n)
	out := make([]engine.Shape, n)
	for i := range out {
		out[i] = engine.Shape{
			PromptTokens: q(promptMedian, promptSigma, promptMax, i),
			OutputTokens: q(outMedian, outSigma, outMax, pair[i]),
		}
	}
	return out
}

// BenchmarkOptimizeCaseIVShaped measures the shaped schedule search: Case
// IV on 16 XPU-C hosts, priced over a 4-shape stratified lognormal sample
// (prompt median 512, sigma 0.8, cap 4096; output median 256, sigma 0.7,
// cap 1024), with three batch-formation policies and chunk quanta {0, 256}
// as search dimensions, on 2 workers. Each surviving candidate is stamped
// six ways, so this is the search's formation-pricing hot path.
func BenchmarkOptimizeCaseIVShaped(b *testing.B) {
	b.ReportAllocs()
	opts := DefaultOptions(hw.DefaultCluster())
	opts.Workers = 2
	opts.Shapes = stratifiedShapes(4, 512, 0.8, 4096, 256, 0.7, 1024)
	opts.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
	opts.ChunkQuanta = []int{0, 256}
	for i := 0; i < b.N; i++ {
		o, err := NewOptimizer(ragschema.CaseIV(8e9), opts)
		if err != nil {
			b.Fatal(err)
		}
		if front := o.Optimize(); len(front) == 0 {
			b.Fatal("empty frontier")
		}
	}
}
