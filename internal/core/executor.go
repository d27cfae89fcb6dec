package core

import (
	"fmt"

	"edgeslice/internal/netsim"
)

// Executor runs Algorithm 1 on a System. Every implementation executes the
// same three phases per period:
//
//  1. distribute — push the coordinator's (Z, Y) columns into every RA;
//  2. step — run T intervals of decentralized orchestration in every RA
//     (the x-update), recording per-interval outcomes;
//  3. collect — gather Σ_t U per slice per RA, run the ADMM (Z, Y) update,
//     and record the period's SLA flags and primal/dual residuals.
//
// The implementations differ only in where and how phase 2 executes:
// Serial steps RAs in-process one after another (the historical
// RunPeriods behavior and the reference oracle), Batched runs one wide
// forward pass per policy group per interval, and Remote steps RAs in
// separate agent processes over the RC network interface. Serial and
// Batched are bit-identical for any worker count; Remote is identical to
// Serial when the remote agents run the same environments and policies.
type Executor interface {
	// Name reports the engine spelling ("serial", "batched", "remote").
	Name() string
	// RunPeriods executes Algorithm 1 for n periods on s, returning the
	// recorded history. Implementations document their error contract;
	// Serial and Batched return a nil history on error.
	RunPeriods(s *System, n int) (*History, error)
	// Close releases executor resources (network sessions). A closed
	// executor must not be reused.
	Close() error
}

// Engine spellings accepted by NewExecutor and the -engine CLI flags.
const (
	EngineSerial  = "serial"
	EngineBatched = "batched"
	EngineRemote  = "remote"
)

// NewExecutor resolves an in-process engine spelling: "serial" (or empty)
// and "batched" (one wide forward pass per policy group per interval;
// workers ≤ 0 defaults to GOMAXPROCS and shards the matmul). The remote
// engine needs a live hub and timeout; construct it with
// NewRemoteExecutor.
func NewExecutor(engine string, workers int) (Executor, error) {
	switch engine {
	case "", EngineSerial:
		return NewSerialExecutor(), nil
	case EngineBatched:
		return NewBatchedExecutor(workers), nil
	case EngineRemote:
		return nil, fmt.Errorf("core: the remote engine wraps a live hub; construct it with NewRemoteExecutor")
	default:
		return nil, fmt.Errorf("core: unknown engine %q (want %q or %q)", engine, EngineSerial, EngineBatched)
	}
}

// checkRunnable validates the shared RunPeriods preconditions of the
// in-process executors.
func (s *System) checkRunnable(n int) error {
	if n <= 0 {
		return fmt.Errorf("core: periods %d must be positive", n)
	}
	if !s.trained {
		return fmt.Errorf("core: RunPeriods before Train/SetAgents")
	}
	return nil
}

// distribute pushes the coordinator's (Z, Y) columns into every RA
// (phase 1 of Alg. 1: agents act under the coordinating information for
// all intervals in T).
func (s *System) distribute() error {
	I := s.cfg.EnvTemplate.NumSlices
	zGrid := s.coord.Z()
	yGrid := s.coord.Y()
	for j := 0; j < s.cfg.NumRAs; j++ {
		zCol := make([]float64, I)
		yCol := make([]float64, I)
		for i := 0; i < I; i++ {
			zCol[i] = zGrid[i][j]
			yCol[i] = yGrid[i][j]
		}
		if err := s.envs[j].SetCoordination(zCol, yCol); err != nil {
			return err
		}
	}
	return nil
}

// collectAndUpdate gathers Σ_t U per slice per RA from the local
// environments and finishes the period (phase 3).
func (s *System) collectAndUpdate(h *History) error {
	I := s.cfg.EnvTemplate.NumSlices
	J := s.cfg.NumRAs
	perf := make([][]float64, I)
	for i := range perf {
		perf[i] = make([]float64, J)
	}
	for j := 0; j < J; j++ {
		pp := s.envs[j].PeriodPerf()
		for i := 0; i < I; i++ {
			perf[i][j] = pp[i]
		}
	}
	return s.finishPeriod(h, perf)
}

// finishPeriod runs the ADMM update on the collected performance grid and
// appends the period's coordinator-side records — shared by every
// executor, so local and remote runs produce identical SLA flags and
// residual series.
func (s *System) finishPeriod(h *History, perf [][]float64) error {
	if err := s.coord.Update(perf); err != nil {
		return err
	}
	sla, err := s.coord.SLASatisfied(perf)
	if err != nil {
		return err
	}
	primal, dual := s.coord.Residuals()
	return s.commitPeriod(h, perf, sla, primal, dual)
}

// divideUsage turns per-interval usage sums into per-RA means: the shares
// of the J RAs are summed first and divided once, so the recorded value
// carries a single rounding instead of J (and the division order cannot
// depend on how the summands were produced).
func divideUsage(usage [][]float64, J int) {
	for i := range usage {
		for k := range usage[i] {
			usage[i][k] /= float64(J)
		}
	}
}

// raInterval is one RA's recorded outcome for a single interval — the
// executor-independent unit the merge phase consumes. The remote executor
// decodes them from agent reports and fills them for its local RAs.
type raInterval struct {
	perf      []float64                      // U_i per slice
	queues    []int                          // post-interval queue lengths
	eff       [][netsim.NumResources]float64 // effective allocation per slice
	violation float64
}

// mergeIntervals folds per-RA interval records into the history and the
// monitor in deterministic (interval, RA, slice) order — the same
// summation and recording order as the serial executor — so merged results
// are bit-identical regardless of report arrival order.
func (s *System) mergeIntervals(h *History, base int, recs [][]raInterval) error {
	I := h.NumSlices
	J := len(recs)
	for t := 0; t < h.T; t++ {
		interval := base + t
		var sysPerf, violation float64
		slicePerf := make([]float64, I)
		usage := make([][]float64, I)
		for i := range usage {
			usage[i] = make([]float64, netsim.NumResources)
		}
		for j := 0; j < J; j++ {
			rec := recs[j][t]
			violation += rec.violation
			for i := 0; i < I; i++ {
				sysPerf += rec.perf[i]
				slicePerf[i] += rec.perf[i]
				for k := 0; k < netsim.NumResources; k++ {
					usage[i][k] += rec.eff[i][k]
				}
				s.recordMon(s.monMetricName(monPerf, j, i), interval, rec.perf[i])
				s.recordMon(s.monMetricName(monQueue, j, i), interval, float64(rec.queues[i]))
			}
		}
		divideUsage(usage, J)
		if err := s.commitInterval(h, sysPerf, slicePerf, usage, violation); err != nil {
			return err
		}
	}
	return nil
}

// serialExecutor is the historical in-process engine: every interval, RAs
// are stepped one after another in RA order.
type serialExecutor struct{}

// NewSerialExecutor returns the serial in-process engine —
// System.RunPeriods' default.
func NewSerialExecutor() Executor { return serialExecutor{} }

// Name implements Executor.
func (serialExecutor) Name() string { return EngineSerial }

// Close implements Executor; the serial engine holds no resources.
func (serialExecutor) Close() error { return nil }

// RunPeriods implements Executor. On error it returns a nil history.
func (serialExecutor) RunPeriods(s *System, n int) (*History, error) {
	if err := s.checkRunnable(n); err != nil {
		return nil, err
	}
	I := s.cfg.EnvTemplate.NumSlices
	J := s.cfg.NumRAs
	T := s.cfg.EnvTemplate.T
	h := s.newRunHistory()

	for p := 0; p < n; p++ {
		if err := s.distribute(); err != nil {
			return nil, err
		}

		// Run T intervals in each RA (decentralized x-update).
		for t := 0; t < T; t++ {
			interval := s.intervalsRun
			s.intervalsRun++
			var sysPerf float64
			slicePerf := make([]float64, I)
			usage := make([][]float64, I)
			for i := range usage {
				usage[i] = make([]float64, netsim.NumResources)
			}
			var violation float64
			for j := 0; j < J; j++ {
				act, err := s.action(j)
				if err != nil {
					return nil, err
				}
				res, err := s.envs[j].StepInterval(act)
				if err != nil {
					return nil, fmt.Errorf("core: RA %d interval %d: %w", j, interval, err)
				}
				violation += res.Violation
				for i := 0; i < I; i++ {
					sysPerf += res.Perf[i]
					slicePerf[i] += res.Perf[i]
					for k := 0; k < netsim.NumResources; k++ {
						usage[i][k] += res.Effective[i][k]
					}
					s.recordInterval(j, i, interval, res)
				}
			}
			divideUsage(usage, J)
			if err := s.commitInterval(h, sysPerf, slicePerf, usage, violation); err != nil {
				return nil, err
			}
		}

		if err := s.collectAndUpdate(h); err != nil {
			return nil, err
		}
	}
	return h, nil
}
