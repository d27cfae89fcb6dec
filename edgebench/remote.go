package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"edgeslice/internal/admm"
	"edgeslice/internal/core"
	"edgeslice/internal/monitor"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
)

// remoteShape sizes the coordination-plane workload.
type remoteShape struct {
	RAs            int
	T              int
	Window         int
	CollectTimeout time.Duration // bounds each period's report collection
	AgentTimeout   time.Duration // bounds an agent's wait for coordination
	CheckPeriods   int
	// SessionPeriods, when positive, ends the session after that many
	// periods (its warm-up included) and starts a fresh one from the same
	// seed: the hub keeps every period's coordination for resume, so one
	// unbounded session's memory would grow with throughput. It must
	// exceed CheckPeriods.
	SessionPeriods int
	// StopAgentAfter, when positive, makes the last RA's agent hang up
	// after that many periods: the failure path the tests exercise.
	StopAgentAfter int
}

// remoteTCP2 is the latency-bound load: 2 agents over loopback TCP with
// the binary codec and a 1-shard hub.
var remoteTCP2 = remoteShape{
	RAs: 2, T: 10, Window: 64,
	CollectTimeout: 2 * time.Second, AgentTimeout: time.Minute,
	CheckPeriods: 200, SessionPeriods: 20000,
}

// reportAllocEvery samples rcnet.report allocations on every n-th period:
// each sample stops the world twice, which would otherwise dominate a
// sub-millisecond period.
const reportAllocEvery = 8

func remoteConfig(sh remoteShape, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.NumRAs = sh.RAs
	cfg.EnvTemplate.T = sh.T
	cfg.Seed = seed
	return cfg
}

// remotePolicies builds one deploy-only CI-scale (2×32) actor per RA,
// round-tripped through SaveAgent/LoadAgent: ddpg.New would also allocate
// a 100k-transition replay buffer per agent that a deployed policy never
// uses.
func remotePolicies(sh remoteShape, seed int64, env *netsim.RAEnv) ([]rl.Agent, error) {
	hidden := core.DefaultConfig().DDPG.Hidden
	out := make([]rl.Agent, sh.RAs)
	for j := range out {
		rng := rand.New(rand.NewSource(seed + int64(j)))
		actor := nn.NewMLP(rng, env.StateDim(),
			nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: hidden, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: env.ActionDim(), Act: nn.ActSigmoid},
		)
		var buf bytes.Buffer
		if err := core.SaveAgent(&buf, actor); err != nil {
			return nil, err
		}
		agent, err := core.LoadAgent(&buf)
		if err != nil {
			return nil, err
		}
		out[j] = agent
	}
	return out, nil
}

// agentFunc runs one RA's agent until the session ends.
type agentFunc func(j int, c *rcnet.AgentClient, env *netsim.RAEnv, policy rl.Agent) error

// remoteRun is a hub with its agents connected, each in its own
// goroutine, plus the coordinator-side System the periods record into.
type remoteRun struct {
	sh   remoteShape
	hub  *rcnet.Hub
	sys  *core.System // coordinator side: shape, ADMM, monitor
	dl   *digestLog
	exec *core.RemoteExecutor

	wg        sync.WaitGroup
	agentErrs []error
}

// startRemote starts the hub and one agent per RA over the binary codec
// and waits until every agent has registered.
func startRemote(sh remoteShape, seed int64, agent agentFunc) (*remoteRun, error) {
	cfg := remoteConfig(sh, seed)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	// A second system supplies the agents' environments, seeded exactly
	// like the coordinator-side system's (and the serial reference's).
	agentSys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	policies, err := remotePolicies(sh, seed, agentSys.Env(0))
	if err != nil {
		return nil, err
	}
	I := cfg.EnvTemplate.NumSlices
	dl, err := newDigestLog(I, sh.RAs, sh.T)
	if err != nil {
		return nil, err
	}
	hub, err := rcnet.NewHub("127.0.0.1:0", I, sh.RAs)
	if err != nil {
		return nil, err
	}
	r := &remoteRun{sh: sh, hub: hub, sys: sys, dl: dl, agentErrs: make([]error, sh.RAs)}
	for j := 0; j < sh.RAs; j++ {
		c, err := rcnet.DialAgentCodec(hub.Addr(), j, sh.CollectTimeout, rcnet.CodecBinary)
		if err != nil {
			_ = r.close()
			return nil, err
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.agentErrs[j] = agent(j, c, agentSys.Env(j), policies[j])
			_ = c.Close()
		}()
	}
	if err := hub.WaitRegistered(sh.CollectTimeout); err != nil {
		_ = r.close()
		return nil, err
	}
	return r, nil
}

// close shuts the hub down and waits for every agent goroutine to end.
func (r *remoteRun) close() error {
	err := r.hub.Shutdown()
	r.wg.Wait()
	return err
}

// runAgentFor returns the untraced agent: rcnet.RunAgent, or — when the
// shape asks for a failure — the benchmark's agent loop on the last RA,
// which hangs up after StopAgentAfter periods.
func runAgentFor(sh remoteShape) agentFunc {
	return func(j int, c *rcnet.AgentClient, env *netsim.RAEnv, policy rl.Agent) error {
		if sh.StopAgentAfter > 0 && j == sh.RAs-1 {
			return tracedAgent(c, env, policy, sh.AgentTimeout, newTracer(time.Now()), &agentMarks{}, j, sh.StopAgentAfter)
		}
		return rcnet.RunAgent(c, env, policy, sh.AgentTimeout)
	}
}

// setupRemote starts the session and runs its first period under the
// remote engine.
func setupRemote(sh remoteShape, seed int64) (*remoteRun, error) {
	r, err := startRemote(sh, seed, runAgentFor(sh))
	if err != nil {
		return nil, err
	}
	r.sys.SetRecording(core.RecordOptions{StreamWindow: sh.Window, Log: r.dl.log})
	r.exec = core.NewRemoteExecutorWithOptions(r.hub, core.RemoteOptions{Timeout: sh.CollectTimeout})
	if _, err := r.exec.RunPeriods(r.sys, 1); err != nil {
		_ = r.close()
		return nil, err
	}
	return r, nil
}

func (r *remoteRun) period() (int, error) {
	if _, err := r.exec.RunPeriods(r.sys, 1); err != nil {
		return 0, err
	}
	return 1, nil
}

// serialRemoteDigest runs n periods of the same RAs and policies under the
// serial engine in-process: what the remote run must reproduce.
func serialRemoteDigest(sh remoteShape, seed int64, n int) (string, error) {
	cfg := remoteConfig(sh, seed)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return "", err
	}
	policies, err := remotePolicies(sh, seed, sys.Env(0))
	if err != nil {
		return "", err
	}
	if err := sys.SetAgents(policies); err != nil {
		return "", err
	}
	dl, err := newDigestLog(cfg.EnvTemplate.NumSlices, sh.RAs, sh.T)
	if err != nil {
		return "", err
	}
	sys.SetRecording(core.RecordOptions{StreamWindow: sh.Window, Log: dl.log})
	if _, err := sys.RunPeriods(n); err != nil {
		return "", err
	}
	return dl.sum()
}

func remoteWorkload(sh remoteShape) func(runConfig) (*report, error) {
	return func(rc runConfig) (*report, error) {
		if rc.Trace {
			return traceRemote(sh, rc)
		}
		return runRemote(sh, rc)
	}
}

func runRemote(sh remoteShape, rc runConfig) (*report, error) {
	run, setups, err := repeatSetup(rc.Setups,
		func() (*remoteRun, error) { return setupRemote(sh, rc.Seed) },
		func(r *remoteRun) error { return r.close() })
	if err != nil {
		return nil, err
	}
	dropped0 := run.hub.Stats().ReportsDropped
	dropped := 0
	periods := 1 // periods of the current session, its warm-up included
	first := true
	var prefix string
	var m meter
	runErr := m.run(rc.measuredLimit(), func() (int, error) {
		if periods == sh.SessionPeriods {
			dropped += int(run.hub.Stats().ReportsDropped - dropped0)
			err := run.close()
			run = nil
			if err != nil {
				return 0, err
			}
			if run, err = setupRemote(sh, rc.Seed); err != nil {
				return 0, err
			}
			periods, first = 1, false
			dropped0 = run.hub.Stats().ReportsDropped
		}
		n, err := run.period()
		periods += n
		if err == nil && first && periods == sh.CheckPeriods {
			prefix, err = run.dl.sum()
		}
		return n, err
	})
	var closeErr error
	if run != nil { // nil when a new session failed to start
		dropped += int(run.hub.Stats().ReportsDropped - dropped0)
		closeErr = run.close()
	}
	if runErr == nil && closeErr != nil {
		return nil, closeErr
	}
	k := sh.CheckPeriods
	if prefix == "" { // the run ended before the check prefix
		k = periods
		if prefix, err = run.dl.sum(); err != nil {
			return nil, err
		}
	}
	ref, err := serialRemoteDigest(sh, rc.Seed, k)
	if err != nil {
		return nil, err
	}
	metrics, attempted, failed := endToEndMetrics(setups, &m, dropped)
	return &report{
		Attempted: attempted, Failed: failed, Metrics: metrics,
		Mismatch: compareDigests(fmt.Sprintf("first %d remote periods vs serial engine", k), prefix, ref),
	}, nil
}

// agentMarks are one agent's per-period timestamps (ns on the tracer
// clock): when Recv returned the period's coordination and when its
// report's write returned.
type agentMarks struct {
	recv, reported []int64
}

// tracedAgent is the benchmark's agent loop in place of rcnet.RunAgent:
// the same Recv, act/step for T intervals, Report sequence for a fresh
// run, with each call in a span. maxPeriods > 0 hangs up after that many.
func tracedAgent(c *rcnet.AgentClient, env *netsim.RAEnv, policy rl.Agent, timeout time.Duration, tr *tracer, marks *agentMarks, ra, maxPeriods int) error {
	T := env.Config().T
	for p := 0; maxPeriods <= 0 || p < maxPeriods; p++ {
		m, err := c.Recv(timeout)
		if err != nil {
			return err
		}
		marks.recv = append(marks.recv, tr.now())
		switch {
		case m.Type == rcnet.MsgShutdown:
			return nil
		case m.Type != rcnet.MsgCoordination:
			return fmt.Errorf("agent %d: unexpected %s frame", ra, m.Type)
		case m.Period != p:
			return fmt.Errorf("agent %d: coordination for period %d, want %d", ra, m.Period, p)
		}
		if err := env.SetCoordination(m.Z, m.Y); err != nil {
			return err
		}
		intervals := make([]rcnet.IntervalRecord, T)
		for step := 0; step < T; step++ {
			state := env.State()
			t := tr.now()
			act := policy.Act(state)
			tr.add(lForward1, p, ra, t, tr.now())
			t = tr.now()
			res, err := env.StepInterval(act)
			tr.add(lStepInterval, p, ra, t, tr.now())
			if err != nil {
				return err
			}
			eff := make([][]float64, len(res.Effective))
			for i := range res.Effective {
				eff[i] = append([]float64(nil), res.Effective[i][:]...)
			}
			intervals[step] = rcnet.IntervalRecord{Perf: res.Perf, Queues: res.QueueLens, Effective: eff, Violation: res.Violation}
		}
		perf, queues := env.PeriodPerf(), env.QueueLens()
		sample := p > 0 && p%reportAllocEvery == 0
		var a0 uint64
		if sample {
			a0 = tr.mallocs()
		}
		t := tr.now()
		err = c.Report(p, perf, queues, intervals)
		end := tr.now()
		tr.add(lReport, p, ra, t, end)
		marks.reported = append(marks.reported, end)
		if sample {
			tr.countAllocs(lReport, tr.mallocs()-a0)
			tr.allocOp(lReport)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// remoteTrace is the benchmark's coordinator loop in place of the remote
// engine: BroadcastTo, CollectReportsInto, the merge through the public
// monitor/History/history-log calls, the ADMM update, and FinishPeriod.
type remoteTrace struct {
	run   *remoteRun
	coord *admm.Coordinator
	mon   *monitor.Monitor
	hist  *core.History
	names []string
	all   []int
	out   []rcnet.Envelope
	got   []bool

	interval   int
	bcastStart []int64 // per period, tracer clock
	collectEnd []int64
}

func (rt *remoteTrace) period(p int, tr *tracer) error {
	sh := rt.run.sh
	I, J, T := rt.hub().NumSlices(), sh.RAs, sh.T

	t := tr.now()
	z, y := rt.coord.Z(), rt.coord.Y()
	tr.add(lAdmm, p, -1, t, tr.now())
	t = tr.now()
	rt.bcastStart = append(rt.bcastStart, t)
	err := rt.hub().BroadcastTo(p, z, y, rt.all)
	tr.add(lBroadcast, p, -1, t, tr.now())
	if err != nil {
		return err
	}
	clear(rt.out)
	clear(rt.got)
	t = tr.now()
	_, err = rt.hub().CollectReportsInto(p, sh.CollectTimeout, rt.out, rt.got)
	end := tr.now()
	tr.add(lCollect, p, -1, t, end)
	rt.collectEnd = append(rt.collectEnd, end)
	if err != nil {
		return err
	}
	for j, rep := range rt.out {
		if len(rep.Perf) != I || len(rep.Intervals) != T {
			return fmt.Errorf("RA %d report has %d slices and %d intervals, want %d and %d", j, len(rep.Perf), len(rep.Intervals), I, T)
		}
		for _, ir := range rep.Intervals {
			if len(ir.Perf) != I || len(ir.Queues) != I || len(ir.Effective) != I {
				return fmt.Errorf("RA %d interval record has %d/%d/%d slices, want %d", j, len(ir.Perf), len(ir.Queues), len(ir.Effective), I)
			}
		}
	}

	slicePerf := make([]float64, I)
	for step := 0; step < T; step++ {
		interval := rt.interval
		rt.interval++
		for j := 0; j < J; j++ {
			ir := rt.out[j].Intervals[step]
			t = tr.now()
			for i := 0; i < I; i++ {
				base := (j*I + i) * 2
				if err := rt.mon.Record(rt.names[base], interval, ir.Perf[i]); err != nil {
					return err
				}
				if err := rt.mon.Record(rt.names[base+1], interval, float64(ir.Queues[i])); err != nil {
					return err
				}
			}
			tr.add(lMonitorRecord, p, j, t, tr.now())
		}
		// The remote engine's merge order: (RA, slice) within an interval.
		var sysPerf, violation float64
		clear(slicePerf)
		usage := make([][]float64, I)
		for i := range usage {
			usage[i] = make([]float64, netsim.NumResources)
		}
		for j := 0; j < J; j++ {
			ir := rt.out[j].Intervals[step]
			violation += ir.Violation
			for i := 0; i < I; i++ {
				sysPerf += ir.Perf[i]
				slicePerf[i] += ir.Perf[i]
				for k := 0; k < netsim.NumResources; k++ {
					usage[i][k] += ir.Effective[i][k]
				}
			}
		}
		for i := range usage {
			for k := range usage[i] {
				usage[i][k] /= float64(J)
			}
		}
		t = tr.now()
		rt.hist.AddInterval(sysPerf, slicePerf, usage, violation)
		tr.add(lHistory, p, -1, t, tr.now())
		t = tr.now()
		err := rt.run.dl.log.LogInterval(sysPerf, slicePerf, usage, violation)
		tr.add(lHistlog, p, -1, t, tr.now())
		if err != nil {
			return err
		}
	}

	perf := make([][]float64, I)
	for i := range perf {
		perf[i] = make([]float64, J)
		for j := 0; j < J; j++ {
			perf[i][j] = rt.out[j].Perf[i]
		}
	}
	t = tr.now()
	err = rt.coord.Update(perf)
	var sla []bool
	if err == nil {
		sla, err = rt.coord.SLASatisfied(perf)
	}
	primal, dual := rt.coord.Residuals()
	tr.add(lAdmm, p, -1, t, tr.now())
	if err != nil {
		return err
	}
	t = tr.now()
	rt.hist.AddPeriod(perf, sla, primal, dual)
	tr.add(lHistory, p, -1, t, tr.now())
	t = tr.now()
	err = rt.run.dl.log.LogPeriod(perf, sla, primal, dual)
	tr.add(lHistlog, p, -1, t, tr.now())
	if err != nil {
		return err
	}
	t = tr.now()
	rt.hub().FinishPeriod(p)
	tr.add(lFinishPeriod, p, -1, t, tr.now())
	return nil
}

func (rt *remoteTrace) hub() *rcnet.Hub { return rt.run.hub }

// traceRemote runs the traced coordinator and agents, then the untraced
// engine and rcnet.RunAgent for the same number of periods; the two
// history-log digests must match.
func traceRemote(sh remoteShape, rc runConfig) (*report, error) {
	t0 := time.Now()
	agentTracers := make([]*tracer, sh.RAs)
	marks := make([]*agentMarks, sh.RAs)
	for j := range agentTracers {
		agentTracers[j] = newTracer(t0)
		marks[j] = &agentMarks{}
	}
	run, err := startRemote(sh, rc.Seed, func(j int, c *rcnet.AgentClient, env *netsim.RAEnv, policy rl.Agent) error {
		return tracedAgent(c, env, policy, sh.AgentTimeout, agentTracers[j], marks[j], j, 0)
	})
	if err != nil {
		return nil, err
	}
	I := run.hub.NumSlices()
	rt := &remoteTrace{
		run: run, coord: run.sys.Coordinator(), mon: run.sys.Monitor(),
		hist: core.NewStreamingHistory(I, sh.RAs, sh.T, sh.Window),
		out:  make([]rcnet.Envelope, sh.RAs), got: make([]bool, sh.RAs),
	}
	rt.mon.SetWindow(sh.Window)
	for j := 0; j < sh.RAs; j++ {
		rt.all = append(rt.all, j)
		for i := 0; i < I; i++ {
			rt.names = append(rt.names, monitor.MetricName("perf", j, i), monitor.MetricName("queue", j, i))
		}
	}
	tr := newTracer(t0)
	// Period 0 is warm-up, as in the untraced run.
	if err := rt.period(0, tr); err != nil {
		_ = run.close()
		return nil, err
	}
	stats0 := run.hub.Stats()
	lim := rc.measuredLimit()
	periods := 1
	start := time.Now()
	var loopErr error
	for {
		if loopErr = rt.period(periods, tr); loopErr != nil {
			break
		}
		periods++
		if lim.reached(periods-1, start) {
			break
		}
	}
	traced := time.Since(start)
	stats1 := run.hub.Stats()
	closeErr := run.close()
	if loopErr != nil {
		return nil, loopErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	for j, err := range run.agentErrs {
		if err != nil {
			return nil, fmt.Errorf("traced agent %d: %w", j, err)
		}
	}
	measured := periods - 1
	traceDigest, err := run.dl.sum()
	if err != nil {
		return nil, err
	}

	base, err := setupRemote(sh, rc.Seed)
	if err != nil {
		return nil, err
	}
	var m meter
	runErr := m.run(limit{ops: measured}, base.period)
	closeErr = base.close()
	if err := errors.Join(runErr, closeErr); err != nil {
		return nil, err
	}
	runDigest, err := base.dl.sum()
	if err != nil {
		return nil, err
	}

	// Derived spans: delivery waits per (period, RA) and the hub's fan-in
	// lag per period, from timestamps taken on both sides of the wire.
	for j, mk := range marks {
		for p := 1; p < len(mk.recv) && p < len(rt.bcastStart); p++ {
			tr.add(lDeliverWait, p, j, rt.bcastStart[p], mk.recv[p])
		}
	}
	for p := 1; p < len(rt.collectEnd); p++ {
		var last int64
		for _, mk := range marks {
			if p < len(mk.reported) {
				last = max(last, mk.reported[p])
			}
		}
		// A report whose write returned after the hub had already read it
		// leaves no lag to charge.
		tr.add(lCollectLag, p, -1, min(last, rt.collectEnd[p]), rt.collectEnd[p])
	}
	for _, at := range agentTracers {
		tr.merge(at)
	}

	ms := layerMetrics()
	busy := tr.busySince(1)
	setLayerTimes(ms, tr, busy, measured,
		lBroadcast, lDeliverWait, lForward1, lStepInterval, lReport, lCollect, lCollectLag,
		lMonitorRecord, lHistory, lHistlog, lAdmm, lFinishPeriod)
	wire := (stats1.BytesIn + stats1.BytesOut) - (stats0.BytesIn + stats0.BytesOut)
	set(ms, "rcnet.wire_bytes", float64(wire)/float64(measured))
	set(ms, "rcnet.frames", float64(frameCount(stats1)-frameCount(stats0))/float64(measured))
	set(ms, "runtime.gc_share", m.gcShare)
	set(ms, "trace.overhead", float64(traced.Nanoseconds())/float64(measured)/m.perOpNs())
	if rc.TraceDir != "" {
		if err := tr.writeSpans(rc.TraceDir, "remote-tcp-2", rc.Seed); err != nil {
			return nil, err
		}
	}
	return &report{
		Attempted: measured, Metrics: ms,
		Mismatch: compareDigests(fmt.Sprintf("traced loops vs remote engine over %d periods", periods), traceDigest, runDigest),
	}, nil
}

// frameCount sums the hub's frames in both directions.
func frameCount(s rcnet.HubStats) uint64 {
	var n uint64
	for _, v := range s.FramesIn {
		n += v
	}
	for _, v := range s.FramesOut {
		n += v
	}
	return n
}
