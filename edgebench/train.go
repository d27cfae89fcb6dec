package main

import (
	"fmt"
	"math"
	"time"

	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/ddpg"
)

// trainShape sizes the training workload.
type trainShape struct {
	// Chunk is the number of steps per Train call; one call is one timed
	// sample, and a multiple of the episode length.
	Chunk int
	// CheckChunks is the prefix compared against the reference loop.
	CheckChunks int
}

// trainDDPG trains the CI-scale agent of edgeslice-sim and edgeslice-train
// (2×32, batch 64, warm-up 300) on one training-mode environment.
var trainDDPG = trainShape{Chunk: 100, CheckChunks: 5}

// updateAllocEvery samples step and update allocations on every n-th
// step: each sample stops the world for a MemStats read, which would
// otherwise double a step.
const updateAllocEvery = 8

func trainConfigs(seed int64) (ddpg.Config, netsim.Config) {
	dc := core.DefaultConfig().DDPG
	dc.Seed = seed
	ec := netsim.DefaultExperimentConfig()
	ec.ObserveQueue = true
	ec.TrainCoordRandom = true
	ec.Seed = seed + 104729 // System.Train's training-env seed offset
	return dc, ec
}

type trainRun struct {
	agent *ddpg.Agent
	env   *netsim.RAEnv
	dc    ddpg.Config
}

func newTrainRun(seed int64) (*trainRun, error) {
	dc, ec := trainConfigs(seed)
	env, err := netsim.New(ec)
	if err != nil {
		return nil, err
	}
	agent, err := ddpg.New(env.StateDim(), env.ActionDim(), dc)
	if err != nil {
		return nil, err
	}
	return &trainRun{agent: agent, env: env, dc: dc}, nil
}

// setupTrain builds the agent and environment and fills the replay buffer
// through the exploration warm-up.
func setupTrain(seed int64) (*trainRun, error) {
	r, err := newTrainRun(seed)
	if err != nil {
		return nil, err
	}
	if err := r.agent.Train(r.env, r.dc.WarmupSteps); err != nil {
		return nil, err
	}
	return r, nil
}

// tracedChunk is the loop inside ddpg.Agent.Train, spelled out through
// its public calls: ActExplore, Step, Observe, Update, with a reset at the
// start and at every episode end.
func (r *trainRun) tracedChunk(chunk, steps int, tr *tracer, countAllocs bool) error {
	state := r.env.Reset()
	for i := 0; i < steps; i++ {
		sample := countAllocs && i%updateAllocEvery == 0
		t := tr.now()
		action := r.agent.ActExplore(state)
		tr.add(lActExplore, chunk, -1, t, tr.now())

		var a0 uint64
		if sample {
			a0 = tr.mallocs()
		}
		t = tr.now()
		next, reward, done := r.env.Step(action)
		tr.add(lStep, chunk, -1, t, tr.now())
		if sample {
			tr.countAllocs(lStep, tr.mallocs()-a0)
			tr.allocOp(lStep)
		}

		t = tr.now()
		r.agent.Observe(rl.Transition{State: state, Action: action, Reward: reward, NextState: next, Done: done})
		tr.add(lObserve, chunk, -1, t, tr.now())

		if sample {
			a0 = tr.mallocs()
		}
		t = tr.now()
		err := r.agent.Update()
		tr.add(lUpdate, chunk, -1, t, tr.now())
		if sample {
			tr.countAllocs(lUpdate, tr.mallocs()-a0)
			tr.allocOp(lUpdate)
		}
		if err != nil {
			return err
		}
		if done {
			state = r.env.Reset()
		} else {
			state = next
		}
	}
	return nil
}

// referenceActor runs the spelled-out loop for the warm-up plus chunks
// Train calls and returns the actor's parameters.
func referenceActor(sh trainShape, seed int64, chunks int) ([]float64, error) {
	r, err := newTrainRun(seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer(time.Now())
	if err := r.tracedChunk(0, r.dc.WarmupSteps, tr, false); err != nil {
		return nil, err
	}
	for c := 1; c <= chunks; c++ {
		if err := r.tracedChunk(c, sh.Chunk, tr, false); err != nil {
			return nil, err
		}
	}
	return r.agent.Actor().FlattenParams(), nil
}

// compareParams returns a mismatch description, or "" when bitwise equal.
func compareParams(what string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d parameters, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s: parameter %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
	return ""
}

func trainWorkload(sh trainShape) func(runConfig) (*report, error) {
	return func(rc runConfig) (*report, error) {
		if rc.Trace {
			return traceTrain(sh, rc)
		}
		return runTrain(sh, rc)
	}
}

func runTrain(sh trainShape, rc runConfig) (*report, error) {
	run, setups, err := repeatSetup(rc.Setups,
		func() (*trainRun, error) { return setupTrain(rc.Seed) },
		func(*trainRun) error { return nil })
	if err != nil {
		return nil, err
	}
	chunks := 0
	var prefix []float64
	var m meter
	runErr := m.run(rc.measuredLimit(), func() (int, error) {
		if err := run.agent.Train(run.env, sh.Chunk); err != nil {
			return 0, err
		}
		chunks++
		if chunks == sh.CheckChunks {
			prefix = run.agent.Actor().FlattenParams()
		}
		return sh.Chunk, nil
	})
	if runErr != nil {
		return nil, runErr
	}
	k := sh.CheckChunks
	if prefix == nil { // the run ended before the check prefix
		k = chunks
		prefix = run.agent.Actor().FlattenParams()
	}
	ref, err := referenceActor(sh, rc.Seed, k)
	if err != nil {
		return nil, err
	}
	metrics, attempted, failed := endToEndMetrics(setups, &m, 0)
	return &report{
		Attempted: attempted, Failed: failed, Metrics: metrics,
		Mismatch: compareParams(fmt.Sprintf("actor after %d Train chunks vs spelled-out loop", k), prefix, ref),
	}, nil
}

// traceTrain runs the spelled-out loop with spans, then ddpg.Agent.Train
// for the same chunks; the trained actors must be bitwise equal.
func traceTrain(sh trainShape, rc runConfig) (*report, error) {
	r, err := newTrainRun(rc.Seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer(time.Now())
	// Chunk 0 is the replay warm-up, as in the untraced run.
	if err := r.tracedChunk(0, r.dc.WarmupSteps, tr, false); err != nil {
		return nil, err
	}
	lim := rc.measuredLimit()
	chunks := 0
	start := time.Now()
	for {
		if err := r.tracedChunk(chunks+1, sh.Chunk, tr, true); err != nil {
			return nil, err
		}
		chunks++
		if lim.reached(chunks*sh.Chunk, start) {
			break
		}
	}
	traced := time.Since(start)
	steps := chunks * sh.Chunk

	base, err := setupTrain(rc.Seed)
	if err != nil {
		return nil, err
	}
	var m meter
	if err := m.run(limit{ops: steps}, func() (int, error) {
		return sh.Chunk, base.agent.Train(base.env, sh.Chunk)
	}); err != nil {
		return nil, err
	}

	ms := layerMetrics()
	setLayerTimes(ms, tr, tr.busySince(1), steps, lActExplore, lStep, lObserve, lUpdate)
	set(ms, "runtime.gc_share", m.gcShare)
	set(ms, "trace.overhead", float64(traced.Nanoseconds())/float64(steps)/m.perOpNs())
	if rc.TraceDir != "" {
		if err := tr.writeSpans(rc.TraceDir, "train-ddpg", rc.Seed); err != nil {
			return nil, err
		}
	}
	return &report{
		Attempted: steps, Metrics: ms,
		Mismatch: compareParams(fmt.Sprintf("traced loop vs ddpg.Agent.Train over %d chunks", chunks),
			r.agent.Actor().FlattenParams(), base.agent.Actor().FlattenParams()),
	}, nil
}
