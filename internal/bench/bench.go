// Package bench is the experiment harness: one function per table and
// figure in the paper's characterization (§5) and evaluation (§7)
// sections, each returning typed rows/series that cmd/ragochar,
// cmd/ragoeval, and the repository's benchmarks render.
package bench

import (
	"fmt"
	"sort"

	"rago/internal/core"
	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
)

// Series is one labeled curve: (x, y) points, e.g. a Pareto frontier with
// x = TTFT seconds and y = QPS/chip.
type Series struct {
	Name   string
	X, Y   []float64
	XLabel string
	YLabel string
}

// Cell is one heatmap entry.
type Cell struct {
	Row, Col string
	Value    float64
}

// Breakdown is a normalized time/resource share split for one
// configuration (§5's breakdown plots: values sum to 100).
type Breakdown struct {
	Label  string
	Stages []string
	Shares []float64
}

// pool64 returns the default §5 environment (16 hosts, 64 XPU-C).
func pool64() hw.Cluster { return hw.DefaultCluster() }

// pool128 returns the §7 environment (32 hosts, 128 XPU-C).
func pool128() hw.Cluster { return hw.LargeCluster() }

// optimize builds and runs the optimizer for a schema.
func optimize(s ragschema.Schema, cluster hw.Cluster, norm int) (*core.Optimizer, []core.SchedulePoint, error) {
	opts := core.DefaultOptions(cluster)
	opts.NormalizeChips = norm
	o, err := core.NewOptimizer(s, opts)
	if err != nil {
		return nil, nil, err
	}
	return o, o.Optimize(), nil
}

// frontierSeries converts a schedule frontier to a TTFT-vs-QPS/chip curve.
func frontierSeries(name string, pts []core.SchedulePoint) Series {
	s := Series{Name: name, XLabel: "TTFT (s)", YLabel: "QPS/chip"}
	for _, p := range pts {
		s.X = append(s.X, p.Metrics.TTFT)
		s.Y = append(s.Y, p.Metrics.QPSPerChip)
	}
	return s
}

// maxQPSPerChip extracts the best throughput point of a frontier.
func maxQPSPerChip(pts []core.SchedulePoint) (core.SchedulePoint, error) {
	best, ok := perf.MaxQPSPerChip(pts)
	if !ok {
		return core.SchedulePoint{}, fmt.Errorf("bench: empty frontier")
	}
	return best, nil
}

// componentCost is the §5 breakdown methodology: each component's share is
// its resource-time per request at its own maximum QPS per chip-equivalent
// (one CPU host counts as its four XPUs, §5 "4 XPUs per host server").
// Lower max throughput means more resource-seconds per request.
func componentCost(prof *stageperf.Profiler, st pipeline.Stage, maxBatch int) (float64, error) {
	switch st.Kind {
	case pipeline.KindRetrieval:
		servers := prof.MinRetrievalServers()
		best := 0.0
		for b := 1; b <= 1024; b <<= 1 {
			if pt := prof.Eval(st, servers, b); pt.OK && pt.QPS > best {
				best = pt.QPS
			}
		}
		if best <= 0 {
			return 0, fmt.Errorf("bench: retrieval infeasible")
		}
		chipEq := float64(servers) * float64(prof.Host.XPUsPerHost)
		return chipEq / best, nil
	default:
		// Smallest chip count that fits the model, replication-free;
		// per-chip throughput maximized over batch.
		chips := prof.Sim.MinChips(st.Model)
		if chips == 0 {
			return 0, fmt.Errorf("bench: %v does not fit any chip count", st.Kind)
		}
		best := 0.0
		for b := 1; b <= maxBatch; b <<= 1 {
			if pt := prof.Eval(st, chips, b); pt.OK && pt.QPS > best {
				best = pt.QPS
			}
		}
		if best <= 0 {
			return 0, fmt.Errorf("bench: %v infeasible", st.Kind)
		}
		return float64(chips) / best, nil
	}
}

// breakdown computes the normalized resource-time shares of a schema's
// stages (§5 plots). Decode-type stages use large batches (continuous
// batching); pre-decode stages are capped at maxPreBatch.
func breakdown(schema ragschema.Schema, chip hw.XPU, label string) (Breakdown, error) {
	pipe, err := pipeline.Build(schema)
	if err != nil {
		return Breakdown{}, err
	}
	prof := stageperf.New(chip, hw.EPYCHost, schema)
	out := Breakdown{Label: label}
	var total float64
	costs := make([]float64, 0, len(pipe.Stages))
	for _, st := range pipe.Stages {
		maxBatch := 32
		if st.Kind.Autoregressive() {
			maxBatch = 2048
		}
		c, err := componentCost(prof, st, maxBatch)
		if err != nil {
			return Breakdown{}, err
		}
		// Iterative retrieval repeats the retrieval cost.
		if st.Kind == pipeline.KindRetrieval {
			c *= float64(schema.RetrievalFrequency)
		}
		costs = append(costs, c)
		total += c
		out.Stages = append(out.Stages, st.Kind.String())
	}
	for _, c := range costs {
		out.Shares = append(out.Shares, c/total*100)
	}
	return out, nil
}

// shareOf returns the percentage share of one stage kind in a breakdown.
func (b Breakdown) shareOf(kind string) float64 {
	for i, s := range b.Stages {
		if s == kind {
			return b.Shares[i]
		}
	}
	return 0
}

// RetrievalShare is the "% time spent on retrieval" quantity Fig. 7 plots.
func RetrievalShare(schema ragschema.Schema, chip hw.XPU) (float64, error) {
	b, err := breakdown(schema, chip, "")
	if err != nil {
		return 0, err
	}
	return b.shareOf("retrieval"), nil
}

// sortCells orders cells deterministically for stable rendering.
func sortCells(cells []Cell) {
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})
}
