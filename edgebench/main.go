// Command edgebench is EdgeSlice's benchmark. It runs one workload of
// Algorithm 1 through the repository's public entry points, checks the
// outputs against an independent reference, and prints every metric by
// name and unit as one JSON line:
//
//	bash edgebench/run.sh --workload local-batched-512 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it re-drives the workload through the layers' own public
// calls, wraps each call in a span, and reports per-layer metrics; the
// traced run must reproduce the untraced run's output bit for bit. See
// README.md for the workloads, the metrics, and which layer should move
// which end-to-end number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them; an "op" is a period (local, remote), a replica-period (sweep),
// or a training step (train).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s_p75", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"ok_op_ratio", "ratio", "higher"},
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"netsim.set_coordination.ns", "ns", "lower"},
	{"netsim.state.ns", "ns", "lower"},
	{"nn.forward_batch.ns", "ns", "lower"},
	{"nn.forward_batch.allocs", "count", "lower"},
	{"netsim.step_interval.ns", "ns", "lower"},
	{"netsim.step_interval.allocs", "count", "lower"},
	{"monitor.record.ns", "ns", "lower"},
	{"monitor.record.allocs", "count", "lower"},
	{"core.history.ns", "ns", "lower"},
	{"core.histlog.ns", "ns", "lower"},
	{"admm.update.ns", "ns", "lower"},
	{"core.glue.ns", "ns", "lower"},
	{"rcnet.broadcast.ns", "ns", "lower"},
	{"rcnet.deliver_wait.ns", "ns", "lower"},
	{"nn.forward1.ns", "ns", "lower"},
	{"rcnet.report.ns", "ns", "lower"},
	{"rcnet.report.allocs", "count", "lower"},
	{"rcnet.collect.ns", "ns", "lower"},
	{"rcnet.collect_lag.ns", "ns", "lower"},
	{"rcnet.finish_period.ns", "ns", "lower"},
	{"rcnet.wire_bytes", "B", "lower"},
	{"rcnet.frames", "count", "lower"},
	{"scenario.replica.ms_p50", "ms", "lower"},
	{"scenario.replica.ms_p90", "ms", "lower"},
	{"cpu.netsim", "ratio", "lower"},
	{"cpu.monitor", "ratio", "lower"},
	{"cpu.core", "ratio", "lower"},
	{"cpu.scenario", "ratio", "lower"},
	{"cpu.runtime_malloc", "ratio", "lower"},
	{"ddpg.act_explore.ns", "ns", "lower"},
	{"netsim.step.ns", "ns", "lower"},
	{"netsim.step.allocs", "count", "lower"},
	{"ddpg.observe.ns", "ns", "lower"},
	{"ddpg.update.ns", "ns", "lower"},
	{"ddpg.update.allocs", "count", "lower"},
	{"runtime.gc_share", "ratio", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed     int64
	Duration time.Duration // length of the measured phase
	// MaxOps, when positive, ends the measured phase after this many ops
	// instead of after Duration (the benchmark's own tests use it).
	MaxOps int
	Trace  bool
	// TraceDir receives the span file of a traced run; empty skips it.
	TraceDir string
	// Setups is how many times the workload is set up; setup_s is their
	// median and the last one is measured.
	Setups int
}

// report is what a workload returns: op accounting, the correctness gate's
// verdict, and the metrics of the mode it ran in.
type report struct {
	Attempted, Failed int
	// Mismatch is non-empty when an output differs from its reference.
	Mismatch string
	Metrics  map[string]metric
}

// workload is one named benchmark load.
type workload struct {
	Name string
	Run  func(rc runConfig) (*report, error)
}

// workloads are the benchmark's loads, sized for a 2-core machine and
// fixed here rather than read from the machine.
func workloads() []workload {
	return []workload{
		{"local-batched-512", localWorkload(localBatched512)},
		{"remote-tcp-2", remoteWorkload(remoteTCP2)},
		{"catalog-sweep", sweepWorkload(catalogSweep)},
		{"train-ddpg", trainWorkload(trainDDPG)},
	}
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	all := workloads()
	for i := range all {
		if all[i].Name == *name {
			w = &all[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "edgebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "edgebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rc := runConfig{
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		TraceDir: filepath.Join(".bench_build", "traces"),
		Setups:   21,
	}
	rep, err := w.Run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgebench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	if rep.Mismatch != "" {
		fmt.Fprintf(os.Stderr, "edgebench: %s: correctness gate failed: %s\n", w.Name, rep.Mismatch)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{
		"workload": w.Name, "seed": rc.Seed, "seconds": *seconds, "trace": *trace,
		"machine": describeMachine(),
	}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(result{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}); err != nil {
		os.Exit(1)
	}
}
