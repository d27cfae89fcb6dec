package main

import (
	"fmt"
	"sync"
	"time"

	"edgeslice/internal/admm"
	"edgeslice/internal/core"
	"edgeslice/internal/monitor"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
)

// localShape sizes the in-process batched workload.
type localShape struct {
	RAs     int
	T       int
	Workers int // batched engine matmul shards
	Window  int // streaming History and monitor window
	// CheckPeriods is the prefix compared against the serial engine.
	CheckPeriods int
}

// localBatched512 is the inference-heavy load: 512 RAs share one untrained
// paper-scale 2×128 actor, stepped by the batched engine on 2 workers.
var localBatched512 = localShape{RAs: 512, T: 10, Workers: 2, Window: 64, CheckPeriods: 3}

func localConfig(sh localShape, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.NumRAs = sh.RAs
	cfg.EnvTemplate.T = sh.T
	cfg.Seed = seed
	return cfg
}

// newLocalSystem builds the system and its shared untrained paper-scale
// actor (ddpg.DefaultConfig: 2×128).
func newLocalSystem(sh localShape, seed int64) (*core.System, *ddpg.Agent, error) {
	sys, err := core.NewSystem(localConfig(sh, seed))
	if err != nil {
		return nil, nil, err
	}
	dc := ddpg.DefaultConfig()
	dc.Seed = seed
	agent, err := ddpg.New(sys.Env(0).StateDim(), sys.Env(0).ActionDim(), dc)
	if err != nil {
		return nil, nil, err
	}
	if err := sys.SetAgents([]rl.Agent{agent}); err != nil {
		return nil, nil, err
	}
	return sys, agent, nil
}

// localRun is the untraced load: the batched engine driven one period at
// a time, recording into a streaming History plus a hashed history log.
type localRun struct {
	sys  *core.System
	exec *core.BatchedExecutor
	dl   *digestLog
}

// setupLocal builds the run and executes its first period, which builds
// the batch plan and the monitor-name cache.
func setupLocal(sh localShape, seed int64) (*localRun, error) {
	sys, _, err := newLocalSystem(sh, seed)
	if err != nil {
		return nil, err
	}
	dl, err := newDigestLog(localConfig(sh, seed).EnvTemplate.NumSlices, sh.RAs, sh.T)
	if err != nil {
		return nil, err
	}
	sys.SetRecording(core.RecordOptions{StreamWindow: sh.Window, Log: dl.log})
	r := &localRun{sys: sys, exec: core.NewBatchedExecutor(sh.Workers), dl: dl}
	if _, err := r.exec.RunPeriods(sys, 1); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *localRun) period() (int, error) {
	if _, err := r.exec.RunPeriods(r.sys, 1); err != nil {
		return 0, err
	}
	return 1, nil
}

// serialLocalDigest runs n periods under the serial engine, the reference
// the batched engine must match bit for bit.
func serialLocalDigest(sh localShape, seed int64, n int) (string, error) {
	sys, _, err := newLocalSystem(sh, seed)
	if err != nil {
		return "", err
	}
	dl, err := newDigestLog(localConfig(sh, seed).EnvTemplate.NumSlices, sh.RAs, sh.T)
	if err != nil {
		return "", err
	}
	sys.SetRecording(core.RecordOptions{StreamWindow: sh.Window, Log: dl.log})
	if _, err := sys.RunPeriods(n); err != nil {
		return "", err
	}
	return dl.sum()
}

func localWorkload(sh localShape) func(runConfig) (*report, error) {
	return func(rc runConfig) (*report, error) {
		if rc.Trace {
			return traceLocal(sh, rc)
		}
		return runLocal(sh, rc)
	}
}

func runLocal(sh localShape, rc runConfig) (*report, error) {
	run, setups, err := repeatSetup(rc.Setups,
		func() (*localRun, error) { return setupLocal(sh, rc.Seed) },
		func(*localRun) error { return nil })
	if err != nil {
		return nil, err
	}
	periods := 1 // the warm-up period
	var prefix string
	var m meter
	runErr := m.run(rc.measuredLimit(), func() (int, error) {
		n, err := run.period()
		periods += n
		if err == nil && periods == sh.CheckPeriods {
			prefix, err = run.dl.sum()
		}
		return n, err
	})
	if runErr != nil {
		return nil, runErr
	}
	k := sh.CheckPeriods
	if prefix == "" { // the run ended before the check prefix
		k = periods
		if prefix, err = run.dl.sum(); err != nil {
			return nil, err
		}
	}
	ref, err := serialLocalDigest(sh, rc.Seed, k)
	if err != nil {
		return nil, err
	}
	metrics, attempted, failed := endToEndMetrics(setups, &m, 0)
	return &report{
		Attempted: attempted, Failed: failed, Metrics: metrics,
		Mismatch: compareDigests(fmt.Sprintf("first %d batched periods vs serial engine", k), prefix, ref),
	}, nil
}

// localTrace re-drives the batched period through the layers' public
// calls: gather (StateInto), one wide ActBatch sharded like the batched
// engine, StepInterval, monitor Record, History and history-log appends,
// and the ADMM update.
type localTrace struct {
	sh    localShape
	sys   *core.System
	agent *ddpg.Agent
	coord *admm.Coordinator
	mon   *monitor.Monitor
	hist  *core.History
	dl    *digestLog

	names    []string // monitor metric names, (ra·I+slice)·2+{perf,queue}
	states   *nn.Matrix
	shardLo  []int // shard s forwards rows [shardLo[s], shardLo[s+1])
	shardIn  []nn.Matrix
	shardWS  []*nn.Workspace
	shardOut []*nn.Matrix
	results  []netsim.StepResult
	zCol     []float64
	yCol     []float64
	interval int
}

// localAllocEvery counts allocations on every n-th traced period: each
// count reads MemStats, which stops the world.
const localAllocEvery = 4

// minShardRows mirrors the batched engine's smallest row block per shard.
const minShardRows = 64

func newLocalTrace(sh localShape, seed int64) (*localTrace, error) {
	sys, agent, err := newLocalSystem(sh, seed)
	if err != nil {
		return nil, err
	}
	I := localConfig(sh, seed).EnvTemplate.NumSlices
	dl, err := newDigestLog(I, sh.RAs, sh.T)
	if err != nil {
		return nil, err
	}
	lt := &localTrace{
		sh: sh, sys: sys, agent: agent, coord: sys.Coordinator(), mon: sys.Monitor(),
		hist: core.NewStreamingHistory(I, sh.RAs, sh.T, sh.Window), dl: dl,
		results: make([]netsim.StepResult, sh.RAs),
		zCol:    make([]float64, I), yCol: make([]float64, I),
	}
	lt.mon.SetWindow(sh.Window)
	for j := 0; j < sh.RAs; j++ {
		for i := 0; i < I; i++ {
			lt.names = append(lt.names, monitor.MetricName("perf", j, i), monitor.MetricName("queue", j, i))
		}
	}
	dim := sys.Env(0).StateDim()
	lt.states = nn.NewMatrix(sh.RAs, dim)
	shards := 1
	if sh.Workers > 1 && sh.RAs >= 2*minShardRows {
		shards = min(sh.RAs/minShardRows, sh.Workers)
	}
	cs := (sh.RAs + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo, hi := s*cs, min((s+1)*cs, sh.RAs)
		lt.shardLo = append(lt.shardLo, lo)
		lt.shardIn = append(lt.shardIn, nn.Matrix{Rows: hi - lo, Cols: dim, Data: lt.states.Data[lo*dim : hi*dim]})
		lt.shardWS = append(lt.shardWS, new(nn.Workspace))
	}
	lt.shardLo = append(lt.shardLo, sh.RAs)
	lt.shardOut = make([]*nn.Matrix, shards)
	return lt, nil
}

// forward runs the wide actor pass, one goroutine per extra shard.
func (lt *localTrace) forward() {
	var wg sync.WaitGroup
	for s := 1; s < len(lt.shardIn); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lt.shardWS[s].Reset()
			lt.shardOut[s] = lt.agent.ActBatch(&lt.shardIn[s], lt.shardWS[s])
		}()
	}
	lt.shardWS[0].Reset()
	lt.shardOut[0] = lt.agent.ActBatch(&lt.shardIn[0], lt.shardWS[0])
	wg.Wait()
}

func (lt *localTrace) actRow(j int) []float64 {
	cs := lt.shardLo[1] - lt.shardLo[0]
	s := j / cs
	return lt.shardOut[s].Row(j - lt.shardLo[s])
}

// period runs period p, charging each public call to its layer; counting
// allocations reads MemStats at stage boundaries, so it is left off for
// warm-up.
func (lt *localTrace) period(p int, tr *tracer, countAllocs bool) error {
	sh := lt.sh
	I, J := len(lt.zCol), sh.RAs
	dim := lt.states.Cols

	t := tr.now()
	z, y := lt.coord.Z(), lt.coord.Y()
	tr.add(lAdmm, p, -1, t, tr.now())
	for j := 0; j < J; j++ {
		for i := 0; i < I; i++ {
			lt.zCol[i], lt.yCol[i] = z[i][j], y[i][j]
		}
		t = tr.now()
		err := lt.sys.Env(j).SetCoordination(lt.zCol, lt.yCol)
		tr.add(lSetCoord, p, j, t, tr.now())
		if err != nil {
			return err
		}
	}
	slicePerf := make([]float64, I)
	for step := 0; step < sh.T; step++ {
		interval := lt.interval
		lt.interval++
		// The gather is one span per interval: a single StateInto is too
		// short to time on its own without the clock reads dominating it.
		t = tr.now()
		for j := 0; j < J; j++ {
			lt.sys.Env(j).StateInto(lt.states.Data[j*dim : j*dim : (j+1)*dim])
		}
		tr.add(lState, p, -1, t, tr.now())

		var a0 uint64
		if countAllocs {
			a0 = tr.mallocs()
		}
		t = tr.now()
		lt.forward()
		tr.add(lForwardBatch, p, -1, t, tr.now())
		var a1 uint64
		if countAllocs {
			a1 = tr.mallocs()
			tr.countAllocs(lForwardBatch, a1-a0)
		}

		// In the per-RA loops one clock read ends a call and starts the next.
		t = tr.now()
		for j := 0; j < J; j++ {
			res, err := lt.sys.Env(j).StepInterval(lt.actRow(j))
			e := tr.now()
			tr.add(lStepInterval, p, j, t, e)
			t = e
			if err != nil {
				return fmt.Errorf("RA %d interval %d: %w", j, interval, err)
			}
			lt.results[j] = res
		}
		var a2 uint64
		if countAllocs {
			a2 = tr.mallocs()
			tr.countAllocs(lStepInterval, a2-a1)
		}

		t = tr.now()
		for j := 0; j < J; j++ {
			res := lt.results[j]
			for i := 0; i < I; i++ {
				base := (j*I + i) * 2
				if err := lt.mon.Record(lt.names[base], interval, res.Perf[i]); err != nil {
					return err
				}
				if err := lt.mon.Record(lt.names[base+1], interval, float64(res.QueueLens[i])); err != nil {
					return err
				}
			}
			e := tr.now()
			tr.add(lMonitorRecord, p, j, t, e)
			t = e
		}
		if countAllocs {
			tr.countAllocs(lMonitorRecord, tr.mallocs()-a2)
		}

		// The batched engine's (RA, slice) summation order.
		var sysPerf, violation float64
		clear(slicePerf)
		usage := make([][]float64, I)
		for i := range usage {
			usage[i] = make([]float64, netsim.NumResources)
		}
		for j := 0; j < J; j++ {
			res := lt.results[j]
			violation += res.Violation
			for i := 0; i < I; i++ {
				sysPerf += res.Perf[i]
				slicePerf[i] += res.Perf[i]
				for k := 0; k < netsim.NumResources; k++ {
					usage[i][k] += res.Effective[i][k]
				}
			}
		}
		for i := range usage {
			for k := range usage[i] {
				usage[i][k] /= float64(J)
			}
		}
		t = tr.now()
		lt.hist.AddInterval(sysPerf, slicePerf, usage, violation)
		tr.add(lHistory, p, -1, t, tr.now())
		t = tr.now()
		err := lt.dl.log.LogInterval(sysPerf, slicePerf, usage, violation)
		tr.add(lHistlog, p, -1, t, tr.now())
		if err != nil {
			return err
		}
	}
	if countAllocs {
		tr.allocOp(lForwardBatch)
		tr.allocOp(lStepInterval)
		tr.allocOp(lMonitorRecord)
	}

	perf := make([][]float64, I)
	for i := range perf {
		perf[i] = make([]float64, J)
	}
	for j := 0; j < J; j++ {
		pp := lt.sys.Env(j).PeriodPerf()
		for i := 0; i < I; i++ {
			perf[i][j] = pp[i]
		}
	}
	t = tr.now()
	err := lt.coord.Update(perf)
	var sla []bool
	if err == nil {
		sla, err = lt.coord.SLASatisfied(perf)
	}
	primal, dual := lt.coord.Residuals()
	tr.add(lAdmm, p, -1, t, tr.now())
	if err != nil {
		return err
	}
	t = tr.now()
	lt.hist.AddPeriod(perf, sla, primal, dual)
	tr.add(lHistory, p, -1, t, tr.now())
	t = tr.now()
	err = lt.dl.log.LogPeriod(perf, sla, primal, dual)
	tr.add(lHistlog, p, -1, t, tr.now())
	return err
}

// traceLocal runs the traced loop, then the untraced engine for the same
// number of periods; the two history-log digests must match.
func traceLocal(sh localShape, rc runConfig) (*report, error) {
	lt, err := newLocalTrace(sh, rc.Seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer(time.Now())
	// Period 0 is warm-up, as in the untraced run.
	if err := lt.period(0, tr, false); err != nil {
		return nil, err
	}
	lim := rc.measuredLimit()
	periods := 1
	start := time.Now()
	for {
		if err := lt.period(periods, tr, (periods-1)%localAllocEvery == 0); err != nil {
			return nil, err
		}
		periods++
		if lim.reached(periods-1, start) {
			break
		}
	}
	traced := time.Since(start)
	measured := periods - 1
	traceDigest, err := lt.dl.sum()
	if err != nil {
		return nil, err
	}

	run, err := setupLocal(sh, rc.Seed)
	if err != nil {
		return nil, err
	}
	var m meter
	if err := m.run(limit{ops: measured}, run.period); err != nil {
		return nil, err
	}
	runDigest, err := run.dl.sum()
	if err != nil {
		return nil, err
	}

	ms := layerMetrics()
	busy := tr.busySince(1)
	layers := []layer{lSetCoord, lState, lForwardBatch, lStepInterval, lMonitorRecord, lHistory, lHistlog, lAdmm}
	setLayerTimes(ms, tr, busy, measured, layers...)
	var spanned int64
	for _, l := range layers {
		spanned += busy[l]
	}
	set(ms, "core.glue.ns", float64(traced.Nanoseconds()-spanned-tr.countNs)/float64(measured))
	set(ms, "runtime.gc_share", m.gcShare)
	set(ms, "trace.overhead", float64(traced.Nanoseconds())/float64(measured)/m.perOpNs())
	if rc.TraceDir != "" {
		if err := tr.writeSpans(rc.TraceDir, "local-batched-512", rc.Seed); err != nil {
			return nil, err
		}
	}
	return &report{
		Attempted: measured, Metrics: ms,
		Mismatch: compareDigests(fmt.Sprintf("traced loop vs batched engine over %d periods", periods), traceDigest, runDigest),
	}, nil
}
