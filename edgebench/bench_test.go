package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"edgeslice/internal/netsim"
)

// tinyWorkloads are the benchmark's workloads shrunk to a quick pass.
func tinyWorkloads() map[string]func(runConfig) (*report, error) {
	return map[string]func(runConfig) (*report, error){
		// 128 RAs is the smallest shape the batched engine splits across
		// its 2 workers, so the traced loop's sharded forward is covered.
		"local-batched-512": localWorkload(localShape{RAs: 128, T: 10, Workers: 2, Window: 16, CheckPeriods: 3}),
		"remote-tcp-2": remoteWorkload(remoteShape{RAs: 2, T: 10, Window: 16,
			CollectTimeout: 5 * time.Second, AgentTimeout: 30 * time.Second, CheckPeriods: 3}),
		"catalog-sweep": sweepWorkload(sweepShape{Replicas: 2, Parallel: 2}),
		"train-ddpg":    trainWorkload(trainShape{Chunk: 100, CheckChunks: 2}),
	}
}

// tinyOps is each tiny pass's measured length: 3 periods with warm-up,
// one sweep round, 400 training steps after the replay warm-up.
var tinyOps = map[string]int{
	"local-batched-512": 2,
	"remote-tcp-2":      2,
	"catalog-sweep":     1,
	"train-ddpg":        400,
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	all := workloads()
	if len(bf.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(all))
	}
	for i, w := range all {
		if bf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bf.Workloads[i].Name, w.Name)
		}
		if _, ok := tinyWorkloads()[w.Name]; !ok {
			t.Errorf("workload %q has no tiny pass", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, benchmark %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark %+v", i, got, d)
		}
	}
}

// checkMetrics asserts that a report carries exactly the catalog's
// metrics, each with its unit and a finite value.
func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
}

// layersRun are per-layer metrics each workload must measure above zero.
var layersRun = map[string][]string{
	"local-batched-512": {"netsim.set_coordination.ns", "netsim.state.ns", "nn.forward_batch.ns",
		"netsim.step_interval.ns", "netsim.step_interval.allocs", "monitor.record.ns",
		"core.history.ns", "core.histlog.ns", "admm.update.ns", "core.glue.ns"},
	"remote-tcp-2": {"rcnet.broadcast.ns", "rcnet.deliver_wait.ns", "nn.forward1.ns",
		"netsim.step_interval.ns", "rcnet.report.ns", "rcnet.collect.ns", "monitor.record.ns",
		"core.history.ns", "core.histlog.ns", "admm.update.ns", "rcnet.wire_bytes", "rcnet.frames"},
	"catalog-sweep": {"scenario.replica.ms_p50", "scenario.replica.ms_p90"},
	"train-ddpg": {"ddpg.act_explore.ns", "netsim.step.ns", "netsim.step.allocs",
		"ddpg.observe.ns", "ddpg.update.ns"},
}

func TestTinyWorkloads(t *testing.T) {
	for name, run := range tinyWorkloads() {
		t.Run(name, func(t *testing.T) {
			rc := runConfig{Seed: 7, MaxOps: tinyOps[name], Setups: 2, TraceDir: t.TempDir()}
			rep, err := run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mismatch != "" {
				t.Fatalf("correctness gate: %s", rep.Mismatch)
			}
			checkMetrics(t, rep, endToEnd)
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("attempted %d failed %d", rep.Attempted, rep.Failed)
			}
			for _, name := range []string{"setup_s", "ops_per_s_p75", "max_rss_mb"} {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
				}
			}
			if got := rep.Metrics["ok_op_ratio"].Value; got != 1 {
				t.Errorf("ok_op_ratio = %v, want 1", got)
			}

			rc.Trace = true
			rep, err = run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mismatch != "" {
				t.Fatalf("traced run: %s", rep.Mismatch)
			}
			checkMetrics(t, rep, perLayer)
			for _, m := range append(layersRun[name], "trace.overhead") {
				if rep.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, rep.Metrics[m].Value)
				}
			}
		})
	}
}

func TestRemoteAgentHangUpIsCounted(t *testing.T) {
	sh := remoteShape{RAs: 2, T: 10, Window: 16, CollectTimeout: 300 * time.Millisecond,
		AgentTimeout: 30 * time.Second, CheckPeriods: 100, StopAgentAfter: 4}
	start := time.Now()
	rep, err := remoteWorkload(sh)(runConfig{Seed: 3, MaxOps: 50, Setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("run took %v after an agent hung up", took)
	}
	if rep.Mismatch != "" {
		t.Errorf("completed prefix: %s", rep.Mismatch)
	}
	if rep.Failed < 1 {
		t.Fatalf("failed = %d, want the hung-up period counted", rep.Failed)
	}
	if got := rep.Metrics["ok_op_ratio"].Value; got >= 1 {
		t.Errorf("ok_op_ratio = %v, want < 1", got)
	}
	// Warm-up period 0 plus periods 1..3 complete; period 4 fails.
	if rep.Attempted != 4 {
		t.Errorf("attempted = %d, want 4", rep.Attempted)
	}
}

func TestRemoteSessionsRestart(t *testing.T) {
	sh := remoteShape{RAs: 2, T: 10, Window: 16, CollectTimeout: 5 * time.Second,
		AgentTimeout: 30 * time.Second, CheckPeriods: 3, SessionPeriods: 5}
	// 12 measured periods after the first warm-up cross two session ends.
	rep, err := remoteWorkload(sh)(runConfig{Seed: 4, MaxOps: 12, Setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatch != "" {
		t.Fatalf("correctness gate: %s", rep.Mismatch)
	}
	if rep.Attempted != 12 || rep.Failed != 0 {
		t.Errorf("attempted %d failed %d, want 12 and 0", rep.Attempted, rep.Failed)
	}
}

func TestGatesDetectDifferences(t *testing.T) {
	sh := localShape{RAs: 4, T: 10, Workers: 1, Window: 16}
	a, err := serialLocalDigest(sh, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serialLocalDigest(sh, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if compareDigests("seeds", a, b) == "" {
		t.Error("different seeds gave equal history-log digests")
	}
	if compareDigests("same", a, a) != "" {
		t.Error("equal digests reported as a mismatch")
	}
	x := []float64{1, 2, 3}
	y := []float64{1, math.Nextafter(2, 3), 3}
	if compareParams("params", x, y) == "" {
		t.Error("a one-ulp parameter change went unnoticed")
	}
}

func TestProfileSharesAttributesPackages(t *testing.T) {
	env, err := netsim.New(netsim.DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	action := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := env.StepInterval(action); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["netsim"] <= 0 {
		t.Errorf("no samples attributed to netsim: %v", shares)
	}
}
