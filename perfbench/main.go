// Command perfbench is the repository's layered serving benchmark. It runs
// one named workload at one seed through the program's layers (vectordb,
// retrieval, core, engine, cache, trace, sim, serve, control) and prints,
// as its last stdout line, one JSON object with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run):
//
//	bash perfbench/run.sh --workload case1-hot-sharded --seed 1 --seconds 10 --trace 0
//
// Load comes from this one process; GOMAXPROCS is capped at two so the
// optimizer's workers and the live runtime see the same parallelism on
// any machine. A traced run also writes its harness spans as a Chrome
// trace to .bench_build/perfbench-<workload>-<seed>.trace.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// maxProcs caps GOMAXPROCS (and so the optimizer's search workers).
const maxProcs = 2

func main() {
	os.Exit(mainErr(os.Args[1:]))
}

func mainErr(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "wall seconds the replays of one run take")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := findSpec(*name)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	info, _ := json.Marshal(map[string]any{
		"workload": sp.name, "why": sp.why, "seed": *seed, "trace": *traceFlag,
		"fingerprint": fingerprint(),
	})
	fmt.Println(string(info))

	traced := *traceFlag == 1
	out, rec, err := run(sp, *seed, *seconds, traced, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if traced && rec != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d.trace.json", sp.name, *seed))
		if err := writeTrace(rec, path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	res, err := json.Marshal(map[string]any{
		"correct": out.correct, "attempted": out.sent, "failed": out.failed, "metrics": out.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(res))
	if !out.correct {
		return 1
	}
	return 0
}

func writeTrace(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// fingerprint identifies the machine a result was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "cpu_model": cpu,
	}
}
