package main

import (
	"fmt"
	"math"
)

// layerMetrics are the per-layer metrics a traced run prints, with units.
// BENCHMARK.json lists the same names and records which end-to-end metric
// each should move, on which workload.
var layerMetrics = []struct{ name, unit string }{
	{"exp.tasks", "count"},
	{"exp.task_ms_p50", "ms"},
	{"exp.task_ms_max", "ms"},
	{"exp.spec_hash_us", "us"},
	{"sim.events", "count"},
	{"sim.events_per_sim_us", "1/us"},
	{"sim.ns_per_event", "ns"},
	{"sim.engine_ns_per_event", "ns"},
	{"sim.handler_ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.bytes_per_event", "B"},
	{"sim.pending_p50", "count"},
	{"host.q1_ns_per_event", "ns"},
	{"host.q2_ns_per_event", "ns"},
	{"host.q3_ns_per_event", "ns"},
	{"host.q4_ns_per_event", "ns"},
	{"fabric.ns_per_event", "ns"},
	{"fabric.events_per_sim_us", "1/us"},
	{"fabric.pending_p50", "count"},
	{"fabric.bytes_per_event", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.analytic_ms_p50", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.store_hit_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.cold_ms_p50", "ms"},
	{"serve.cold_ms_p99", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.shed_frac", "ratio"},
	{"serve.outcome_mismatch", "count"},
	{"store.open_ms", "ms"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"analytic.predict_us", "us"},
	{"replica.mismatch", "count"},
	{"trace.overhead_s", "s"},
}

// overheadPairs is how many untraced and traced runs of the selected
// workload the traced run alternates. Tracing costs less than the
// run-to-run spread of one process, so the overhead is taken as a
// difference of medians and printed next to the untraced runs' range.
const overheadPairs = 3

// runTraced is the traced run: the selected workload alternately untraced
// and traced, every other workload once with spans on, and the layer
// ledger. The untraced runs give the tracing overhead and the go layer's
// GC figures.
func runTraced(workload string, seed uint64, root, refs string) error {
	var children, untraced []*iterResult
	var tracedWall []float64
	traced := map[string]*iterResult{}
	for i := 0; i < 2*overheadPairs; i++ {
		// Order U T, T U, U T: neither side always runs first.
		tracedRun := i%2 != (i/2)%2
		c := runChild(workload, seed, tracedRun, root, refs)
		children = append(children, c)
		if !tracedRun {
			untraced = append(untraced, c)
			continue
		}
		tracedWall = append(tracedWall, c.WallS)
		if traced[workload] == nil {
			traced[workload] = c
		}
	}
	for _, w := range workloads {
		if w != workload {
			traced[w] = runChild(w, seed, true, root, refs)
			children = append(children, traced[w])
		}
	}
	ledger := runChild("ledger", seed, true, root, refs)
	children = append(children, ledger)

	var untracedWall, gcCycles, gcCPU []float64
	for _, c := range untraced {
		untracedWall = append(untracedWall, c.WallS)
		gcCycles = append(gcCycles, c.GCCycles)
		gcCPU = append(gcCPU, c.GCCPUS)
	}
	layer := map[string]float64{}
	for k, v := range ledger.Layer {
		layer[k] = v
	}
	for k, v := range traced["serve-mix"].Layer {
		layer[k] = v
	}
	var tasks []float64
	for _, w := range []string{"fig3", "incast8"} {
		tasks = append(tasks, traced[w].LayerLists["exp.task_ms"]...)
	}
	layer["exp.tasks"] = traced["fig3"].Layer["exp.tasks"]
	layer["exp.task_ms_p50"] = quantile(tasks, 0.5)
	layer["exp.task_ms_max"] = quantile(tasks, 1)
	layer["go.gc_cycles"] = median(gcCycles)
	layer["go.gc_cpu_s"] = median(gcCPU)
	layer["trace.overhead_s"] = median(tracedWall) - median(untracedWall)

	res := result{Metrics: map[string]metric{}}
	for _, c := range children {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		fmt.Printf("%s (traced %v): wall %.4fs, %d attempted, %d failed", c.Workload, c.SpanFile != "", c.WallS, c.Attempted, c.Failed)
		if c.SpanFile != "" {
			fmt.Printf(", spans in %s", c.SpanFile)
		}
		fmt.Println()
		for _, e := range c.Errors {
			fmt.Printf("  error: %s\n", e)
		}
		for i, st := range c.Self {
			if i == 8 {
				break
			}
			fmt.Printf("  self %-24s %6d calls  total %9.4fs  self %9.4fs\n", st.Name, st.Count, st.TotalS, st.SelfS)
		}
	}
	fmt.Printf("exp task samples: %d (fig3 and incast8 pooled)\n", len(tasks))
	fmt.Printf("trace overhead: %s wall median %.4fs traced vs %.4fs untraced over %d runs each (untraced range %.4f-%.4fs)\n",
		workload, median(tracedWall), median(untracedWall), overheadPairs, quantile(untracedWall, 0), quantile(untracedWall, 1))
	res.Correct = res.Failed == 0 && layer["serve.outcome_mismatch"] == 0 && layer["replica.mismatch"] == 0
	for _, lm := range layerMetrics {
		v, ok := layer[lm.name]
		if !ok {
			v = math.NaN()
			res.Correct = false
			fmt.Printf("error: layer metric %s missing\n", lm.name)
		}
		res.Metrics[lm.name] = metric{Value: v, Unit: lm.unit}
	}
	return printResult(res)
}
