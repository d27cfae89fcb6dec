package rcnet

import (
	"fmt"
	"time"

	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
)

// stepPeriod installs (z, y) and orchestrates one period's T intervals with
// the policy, returning the period report payload.
func stepPeriod(env *netsim.RAEnv, agent rl.Agent, z, y []float64) (perf []float64, queues []int, intervals []IntervalRecord, err error) {
	if err := env.SetCoordination(z, y); err != nil {
		return nil, nil, nil, err
	}
	T := env.Config().T
	intervals = make([]IntervalRecord, T)
	for t := 0; t < T; t++ {
		act := agent.Act(env.State())
		res, err := env.StepInterval(act)
		if err != nil {
			return nil, nil, nil, err
		}
		eff := make([][]float64, len(res.Effective))
		for i := range res.Effective {
			eff[i] = append([]float64(nil), res.Effective[i][:]...)
		}
		intervals[t] = IntervalRecord{
			Perf:      res.Perf,
			Queues:    res.QueueLens,
			Effective: eff,
			Violation: res.Violation,
		}
	}
	return env.PeriodPerf(), env.QueueLens(), intervals, nil
}

// RunAgent drives one RA from the agent side: for each coordination message
// it installs (z, y), orchestrates T intervals with the policy, and reports
// the period performance together with the per-interval records (perf,
// queue lengths, effective allocation, capacity violation) that let the
// coordinator reconstruct the full History of a local run. It returns nil
// when the coordinator shuts the session down.
//
// RunAgent participates in the fault-tolerant protocol, which requires env
// to be freshly seeded (period 0 state) on entry:
//
//   - A resume frame (sent by the hub right after registration when the run
//     is mid-flight) makes it replay the completed periods' coordination
//     columns locally — same deterministic env, same policy, no reports —
//     so the env state catches up bit-identically before live periods.
//   - A re-broadcast of the period it just executed (the coordinator timed
//     out before this RA's report was drained, then retried) re-sends the
//     cached report without stepping the env again, preserving the
//     one-step-per-period invariant that bit-reproducibility rests on.
func RunAgent(c *AgentClient, env *netsim.RAEnv, agent rl.Agent, timeout time.Duration) error {
	done := 0 // periods already stepped into env (replayed or live)
	var lastPerf []float64
	var lastQueues []int
	var lastIntervals []IntervalRecord
	for {
		m, err := c.Recv(timeout)
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgShutdown:
			return nil
		case MsgResume:
			target := m.Period
			if target <= done {
				continue // nothing new to replay
			}
			if done != 0 {
				return fmt.Errorf("rcnet: resume to period %d after %d live periods; reconnect with a fresh env", target, done)
			}
			if len(m.ZHist) < target || len(m.YHist) < target {
				return fmt.Errorf("rcnet: resume to period %d carries %d/%d history columns", target, len(m.ZHist), len(m.YHist))
			}
			for p := 0; p < target; p++ {
				if _, _, _, err := stepPeriod(env, agent, m.ZHist[p], m.YHist[p]); err != nil {
					return fmt.Errorf("rcnet: replaying period %d: %w", p, err)
				}
			}
			done = target
		case MsgCoordination:
			switch {
			case m.Period == done-1:
				// Retry of the period this RA already executed: its report
				// sat undrained past the coordinator's collect timeout.
				// Re-report the cached outcome; stepping again would fork
				// the env from the serial run.
				if err := c.Report(m.Period, lastPerf, lastQueues, lastIntervals); err != nil {
					return err
				}
			case m.Period == done:
				perf, queues, intervals, err := stepPeriod(env, agent, m.Z, m.Y)
				if err != nil {
					return err
				}
				lastPerf, lastQueues, lastIntervals = perf, queues, intervals
				done++
				if err := c.Report(m.Period, perf, queues, intervals); err != nil {
					return err
				}
			case m.Period < done-1:
				// Stale duplicate from an old retry; already superseded.
			default:
				return fmt.Errorf("rcnet: coordination for period %d but only %d periods executed (missed resume?)", m.Period, done)
			}
		}
	}
}
