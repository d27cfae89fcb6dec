package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// layer names one public call (or call group) a traced loop wraps in spans.
type layer uint8

const (
	lSetCoord layer = iota
	lState
	lForwardBatch
	lStepInterval
	lMonitorRecord
	lHistory
	lHistlog
	lAdmm
	lBroadcast
	lDeliverWait
	lForward1
	lReport
	lCollect
	lCollectLag
	lFinishPeriod
	lReplica
	lActExplore
	lStep
	lObserve
	lUpdate
	numLayers
)

// layerNames are the metric prefixes: "<layer>.ns" and "<layer>.allocs".
var layerNames = [numLayers]string{
	lSetCoord:      "netsim.set_coordination",
	lState:         "netsim.state",
	lForwardBatch:  "nn.forward_batch",
	lStepInterval:  "netsim.step_interval",
	lMonitorRecord: "monitor.record",
	lHistory:       "core.history",
	lHistlog:       "core.histlog",
	lAdmm:          "admm.update",
	lBroadcast:     "rcnet.broadcast",
	lDeliverWait:   "rcnet.deliver_wait",
	lForward1:      "nn.forward1",
	lReport:        "rcnet.report",
	lCollect:       "rcnet.collect",
	lCollectLag:    "rcnet.collect_lag",
	lFinishPeriod:  "rcnet.finish_period",
	lReplica:       "scenario.replica",
	lActExplore:    "ddpg.act_explore",
	lStep:          "netsim.step",
	lObserve:       "ddpg.observe",
	lUpdate:        "ddpg.update",
}

// span is every call of one layer for one (period, RA) pair: the T
// intervals of a period fold into one span, so memory grows with periods ×
// RAs, not with calls. RA is -1 for a call that covers every RA at once
// (a wide forward, an ADMM update). For the sweep, Period is the round and
// RA the replica; for training, Period is the chunk.
type span struct {
	Layer      layer
	Period     int32
	RA         int32
	Calls      int32
	Start, End int64 // ns since the tracer started
	Busy       int64 // summed call durations, ns
}

// tracer keeps one goroutine's spans in memory. Traced loops that run on
// several goroutines give each its own tracer and merge them at the end.
type tracer struct {
	t0    time.Time
	spans []span
	// open[l][ra+1] indexes the span of layer l for that RA in the current
	// period, so repeated calls extend it.
	open [numLayers][]int32

	// allocs[l] counts heap objects allocated inside layer l's calls over
	// allocOps[l] ops (the loops sample allocation counts on a subset of
	// ops where reading them would dominate the call).
	allocs   [numLayers]uint64
	allocOps [numLayers]int64
	// countNs is the time spent reading allocation counts: tracer
	// overhead, not program work, so it is kept out of core.glue.
	countNs int64

	ms runtime.MemStats
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// now returns nanoseconds since the tracer's origin.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records one call of layer l for (period, ra) that ran from start to
// end.
func (t *tracer) add(l layer, period, ra int, start, end int64) {
	slot := ra + 1
	for len(t.open[l]) <= slot {
		t.open[l] = append(t.open[l], -1)
	}
	if idx := t.open[l][slot]; idx >= 0 && t.spans[idx].Period == int32(period) {
		s := &t.spans[idx]
		s.Calls++
		s.End = end
		s.Busy += end - start
		return
	}
	t.open[l][slot] = int32(len(t.spans))
	t.spans = append(t.spans, span{Layer: l, Period: int32(period), RA: int32(ra),
		Calls: 1, Start: start, End: end, Busy: end - start})
}

// mallocs returns the process's cumulative heap allocation count. It uses
// ReadMemStats, which is exact; runtime/metrics counts small objects a
// whole span at a time and cannot resolve a single call.
func (t *tracer) mallocs() uint64 {
	start := t.now()
	runtime.ReadMemStats(&t.ms)
	t.countNs += t.now() - start
	return t.ms.Mallocs
}

// countAllocs charges n heap objects to layer l.
func (t *tracer) countAllocs(l layer, n uint64) { t.allocs[l] += n }

// allocOp marks one op whose allocations were counted for layer l.
func (t *tracer) allocOp(l layer) { t.allocOps[l]++ }

// merge folds another goroutine's tracer into t.
func (t *tracer) merge(o *tracer) {
	t.spans = append(t.spans, o.spans...)
	for l := range t.allocs {
		t.allocs[l] += o.allocs[l]
		t.allocOps[l] += o.allocOps[l]
	}
	t.countNs += o.countNs
}

// busySince sums each layer's busy time over the spans of periods from
// first on; earlier periods are warm-up.
func (t *tracer) busySince(first int) [numLayers]int64 {
	var busy [numLayers]int64
	for _, s := range t.spans {
		if int(s.Period) >= first {
			busy[s.Layer] += s.Busy
		}
	}
	return busy
}

// allocsPerOp returns layer l's heap allocations per op over the ops whose
// allocations were counted.
func (t *tracer) allocsPerOp(l layer) float64 {
	if t.allocOps[l] == 0 {
		return 0
	}
	return float64(t.allocs[l]) / float64(t.allocOps[l])
}

// writeSpans writes every span as one tab-separated line to
// <dir>/<workload>.spans.tsv, replacing the previous traced run's file.
func (t *tracer) writeSpans(dir, workload string, seed int64) error {
	path := filepath.Join(dir, workload+".spans.tsv")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# workload %s seed %d\n", workload, seed)
	fmt.Fprintln(bw, "layer\tperiod\tra\tcalls\tstart_ns\tend_ns\tbusy_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			layerNames[s.Layer], s.Period, s.RA, s.Calls, s.Start, s.End, s.Busy)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
