package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rl"
	"edgeslice/internal/telemetry"
)

// BatchedExecutor replaces the serial engine's per-RA actions with a
// gather→batch-forward→scatter stage: every interval it gathers all RA
// observations into one matrix per distinct policy, runs a single wide
// forward pass per policy group (rl.BatchActor), and scatters the action
// rows back to the environments. At hundreds of RAs this turns J×T tiny
// matmuls per period into T wide matmuls that hit the register-tiled
// kernel at full throughput and allocate nothing warm. It is the local
// engine of choice; the serial engine stays as the reference oracle.
//
// Determinism: the result is bit-identical to the serial engine for any
// worker count, by construction —
//
//   - gathering all states before stepping matches serial's interleaved
//     act/step order because an RA's observation depends only on its own
//     environment, which has not stepped yet this interval;
//   - row i of a wide forward is bit-identical to the scalar Act on state i
//     (see nn.MatMulNTInto: batching and worker sharding never reorder or
//     split an output element's dot product);
//   - environments then step in RA order with the serial engine's inline
//     recording, so History, monitor series, and residuals merge in the
//     same fixed (interval, RA, slice) order.
//
// Workers shard the wide matmul (each shard forwards a contiguous row block
// out of its own workspace; weights are only read), which is the engine's
// only concurrency — stepping and recording stay single-threaded. Mixed
// systems split into batched groups plus a legacy per-RA fallback: agents
// without a batched path act through System.action at their RA's position
// in the step loop, which also needs no locking here.
//
// A BatchedExecutor drives one run at a time; concurrent RunPeriods calls
// on the same executor are not supported (the underlying System is not
// concurrency-safe either).
type BatchedExecutor struct {
	workers int

	// Telemetry: wide forwards executed, the row count of the most recent
	// one, and the number of wide forwards in the most recent period.
	forwards  atomic.Uint64
	lastRows  atomic.Int64
	perPeriod atomic.Int64

	// Cached batch plan (policy groups, gather matrices, shard workspaces),
	// keyed on the system and its agent generation — period-at-a-time
	// driving must not regroup and reallocate every call. Accessed only
	// from RunPeriods, which is single-driver by contract.
	cacheSys  *System
	cacheGen  int
	cachePlan *batchPlan
}

// NewBatchedExecutor returns a batched engine; workers ≤ 0 defaults to
// GOMAXPROCS. Workers only shard the wide forward passes — results are
// identical for any worker count.
func NewBatchedExecutor(workers int) *BatchedExecutor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &BatchedExecutor{workers: workers}
}

// Name implements Executor.
func (e *BatchedExecutor) Name() string { return EngineBatched }

// Workers returns the matmul shard count.
func (e *BatchedExecutor) Workers() int { return e.workers }

// Close implements Executor; the batched engine holds no persistent
// resources (shard goroutines are per-forward).
func (e *BatchedExecutor) Close() error { return nil }

// EnableTelemetry exports the engine's batching gauges through a telemetry
// registry.
func (e *BatchedExecutor) EnableTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("edgeslice_executor_batched_forwards_total",
		"wide batched forward passes executed", e.forwards.Load)
	reg.GaugeFunc("edgeslice_executor_batch_size",
		"rows (RAs) in the most recent wide forward pass", func() float64 { return float64(e.lastRows.Load()) })
	reg.GaugeFunc("edgeslice_executor_batches_per_period",
		"wide forward passes per period (policy groups × T)", func() float64 { return float64(e.perPeriod.Load()) })
}

// minShardRows is the smallest row block worth a shard goroutine: below
// this the spawn/synchronization overhead exceeds the matmul itself.
const minShardRows = 64

// batchGroup is one distinct policy's slice of the system: the RAs it
// serves, their gather matrix, and the per-shard workspaces and result
// views of the wide forward.
type batchGroup struct {
	actor rl.BatchActor
	ras   []int // RA indices served by this policy, ascending

	states *nn.Matrix // len(ras) × stateDim gather buffer

	// Shard s forwards rows [lo[s], lo[s+1]) through its own workspace;
	// in[s] is a view into states and res[s] the workspace-backed result.
	lo  []int
	in  []nn.Matrix
	ws  []*nn.Workspace
	res []*nn.Matrix
}

// actRow returns the action row for group-relative row r of the last wide
// forward.
func (g *batchGroup) actRow(r int) []float64 {
	// Shards are equal-size blocks (except the last), so the shard index is
	// a division.
	cs := g.lo[1] - g.lo[0]
	s := r / cs
	return g.res[s].Row(r - g.lo[s])
}

// batchPlan is the cached gather/scatter layout for one (System, agent
// generation): which RAs batch under which policy group and which fall back
// to per-RA actions.
type batchPlan struct {
	groups   []*batchGroup
	groupOf  []*batchGroup // RA j → its group, nil for fallback RAs
	rowOf    []int         // RA j → row within its group's gather matrix
	fallback int           // number of fallback RAs (diagnostics)
}

// batchKey groups RAs by policy instance and observation width — two RAs
// batch together only when the same BatchActor serves both and their
// states share a shape.
type batchKey struct {
	actor rl.BatchActor
	dim   int
}

// planFor returns the batch plan for s, rebuilding it only when the system
// or its installed agents changed since the last call.
func (e *BatchedExecutor) planFor(s *System) *batchPlan {
	if e.cachePlan == nil || e.cacheSys != s || e.cacheGen != s.agentsGen {
		e.cacheSys = s
		e.cacheGen = s.agentsGen
		e.cachePlan = s.newBatchPlan(e.workers)
	}
	return e.cachePlan
}

// newBatchPlan classifies every RA: batch-capable agents with comparable
// dynamic types group per (instance, state shape); everything else — plain
// baselines, unknown agents, agents whose type cannot be a map key — takes
// the per-RA fallback.
func (s *System) newBatchPlan(workers int) *batchPlan {
	all := make([]int, s.cfg.NumRAs)
	for j := range all {
		all[j] = j
	}
	return s.newBatchPlanFor(all, workers)
}

// newBatchPlanFor builds a batch plan covering only the given RAs
// (ascending) — the remote engine uses it to drive its in-process subset
// through the same grouped wide forwards the batched engine runs over the
// full system. groupOf/rowOf stay indexed by global RA id; RAs outside the
// set have no group and are not counted as fallback.
func (s *System) newBatchPlanFor(ras []int, workers int) *batchPlan {
	J := s.cfg.NumRAs
	p := &batchPlan{groupOf: make([]*batchGroup, J), rowOf: make([]int, J)}
	if !s.cfg.Algo.IsLearning() {
		p.fallback = len(ras)
		return p
	}
	byKey := make(map[batchKey]*batchGroup, 1)
	for _, j := range ras {
		ba := rl.AsBatchActor(s.agents[j])
		if ba == nil || !reflect.TypeOf(ba).Comparable() {
			p.fallback++
			continue
		}
		key := batchKey{actor: ba, dim: s.envs[j].StateDim()}
		g := byKey[key]
		if g == nil {
			g = &batchGroup{actor: ba}
			byKey[key] = g
			p.groups = append(p.groups, g)
		}
		p.groupOf[j] = g
		p.rowOf[j] = len(g.ras)
		g.ras = append(g.ras, j)
	}
	for _, g := range p.groups {
		dim := s.envs[g.ras[0]].StateDim()
		g.states = nn.NewMatrix(len(g.ras), dim)
		shards := 1
		if workers > 1 && len(g.ras) >= 2*minShardRows {
			shards = len(g.ras) / minShardRows
			if shards > workers {
				shards = workers
			}
		}
		cs := (len(g.ras) + shards - 1) / shards
		g.res = make([]*nn.Matrix, shards)
		g.in = make([]nn.Matrix, shards)
		g.ws = make([]*nn.Workspace, shards)
		g.lo = make([]int, shards+1)
		for si := 0; si < shards; si++ {
			lo := si * cs
			hi := lo + cs
			if hi > len(g.ras) {
				hi = len(g.ras)
			}
			g.lo[si] = lo
			g.in[si] = nn.Matrix{Rows: hi - lo, Cols: dim, Data: g.states.Data[lo*dim : hi*dim]}
			g.ws[si] = new(nn.Workspace)
		}
		g.lo[shards] = len(g.ras)
	}
	return p
}

// forward runs the group's wide pass and updates the engine's telemetry.
func (e *BatchedExecutor) forward(s *System, g *batchGroup) {
	g.forward(s)
	e.forwards.Add(1)
	e.lastRows.Store(int64(g.states.Rows))
}

// forward gathers the group's states and runs the wide pass, sharded across
// workers when the group is large enough. Shard results are bit-identical
// to an unsharded pass: each output element's dot product is computed
// identically whichever row block it lands in.
func (g *batchGroup) forward(s *System) {
	dim := g.states.Cols
	for r, j := range g.ras {
		row := g.states.Data[r*dim : r*dim : (r+1)*dim]
		s.envs[j].StateInto(row)
	}
	shards := len(g.res)
	if shards == 1 {
		g.ws[0].Reset()
		g.res[0] = g.actor.ActBatch(&g.in[0], g.ws[0])
	} else {
		var wg sync.WaitGroup
		wg.Add(shards - 1)
		for si := 1; si < shards; si++ {
			si := si
			go func() {
				defer wg.Done()
				g.ws[si].Reset()
				g.res[si] = g.actor.ActBatch(&g.in[si], g.ws[si])
			}()
		}
		g.ws[0].Reset()
		g.res[0] = g.actor.ActBatch(&g.in[0], g.ws[0])
		wg.Wait()
	}
}

// RunPeriods implements Executor. On error it returns a nil history, like
// the serial engine it mirrors.
func (e *BatchedExecutor) RunPeriods(s *System, n int) (*History, error) {
	if err := s.checkRunnable(n); err != nil {
		return nil, err
	}
	I := s.cfg.EnvTemplate.NumSlices
	J := s.cfg.NumRAs
	T := s.cfg.EnvTemplate.T
	h := s.newRunHistory()
	plan := e.planFor(s)
	slicePerf := make([]float64, I) // reused; commitInterval copies values

	for p := 0; p < n; p++ {
		if err := s.distribute(); err != nil {
			return nil, err
		}
		for t := 0; t < T; t++ {
			interval := s.intervalsRun
			s.intervalsRun++
			// Gather all observations and run one wide forward per policy
			// group; no environment has stepped this interval yet, so the
			// gathered states equal what serial's per-RA Act calls observe.
			for _, g := range plan.groups {
				e.forward(s, g)
			}
			var sysPerf, violation float64
			for i := range slicePerf {
				slicePerf[i] = 0
			}
			usage := make([][]float64, I) // retained by exact histories
			for i := range usage {
				usage[i] = make([]float64, netsim.NumResources)
			}
			// Scatter: step environments in RA order with serial-identical
			// inline recording.
			for j := 0; j < J; j++ {
				var act []float64
				if g := plan.groupOf[j]; g != nil {
					act = g.actRow(plan.rowOf[j])
				} else {
					var err error
					if act, err = s.action(j); err != nil {
						return nil, err
					}
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
		e.perPeriod.Store(int64(len(plan.groups) * T))
	}
	return h, nil
}
