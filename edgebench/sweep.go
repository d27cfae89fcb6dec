package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"time"

	"edgeslice/internal/scenario"
)

// sweepShape sizes the scenario-catalog workload.
type sweepShape struct {
	Replicas int // per scenario and algorithm
	Parallel int // replica workers of the measured run
}

// catalogSweep runs every built-in scenario with 2 replicas on 2 replica
// workers, serial engine, exact History.
var catalogSweep = sweepShape{Replicas: 2, Parallel: 2}

// sweepSpecs returns the built-in catalog with the workload seed
// installed in every scenario.
func sweepSpecs(seed int64) ([]scenario.Spec, error) {
	var specs []scenario.Spec
	for _, name := range scenario.List() {
		spec, err := scenario.Get(name)
		if err != nil {
			return nil, err
		}
		spec.Seed = seed
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// sweepRound runs the whole catalog once. It returns the concatenated
// WriteSummary tables, a digest of the full-precision summaries, and the
// number of replica-periods run. start, when set, is called before each
// scenario starts and progress after each replica completes.
func sweepRound(specs []scenario.Spec, sh sweepShape, parallel int, start func(), progress func(completed, total int)) (table []byte, digest string, ops int, err error) {
	var buf bytes.Buffer
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, spec := range specs {
		if start != nil {
			start()
		}
		sum, err := scenario.Run(spec, scenario.Options{
			Replicas: sh.Replicas, Parallel: parallel, Engine: scenario.EngineSerial, Progress: progress,
		})
		if err != nil {
			return nil, "", 0, err
		}
		if err := scenario.WriteSummary(&buf, sum); err != nil {
			return nil, "", 0, err
		}
		if err := enc.Encode(sum); err != nil {
			return nil, "", 0, err
		}
		ops += spec.Periods * len(spec.Algorithms) * sh.Replicas
	}
	return buf.Bytes(), hex.EncodeToString(h.Sum(nil)), ops, nil
}

// sweepRun holds the catalog and the reference output of its warm-up
// round.
type sweepRun struct {
	specs  []scenario.Spec
	table  []byte
	digest string
}

// setupSweep loads the catalog and runs one warm-up round at the measured
// parallelism; its output is the reference every later round must match.
func setupSweep(sh sweepShape, seed int64) (*sweepRun, error) {
	specs, err := sweepSpecs(seed)
	if err != nil {
		return nil, err
	}
	table, digest, _, err := sweepRound(specs, sh, sh.Parallel, nil, nil)
	if err != nil {
		return nil, err
	}
	return &sweepRun{specs: specs, table: table, digest: digest}, nil
}

// check compares a round's output with the warm-up round's.
func (r *sweepRun) check(what string, table []byte, digest string) string {
	if !bytes.Equal(table, r.table) {
		return fmt.Sprintf("%s: WriteSummary output differs:\n%s\nreference:\n%s", what, table, r.table)
	}
	return compareDigests(what+" summaries", digest, r.digest)
}

func sweepWorkload(sh sweepShape) func(runConfig) (*report, error) {
	return func(rc runConfig) (*report, error) {
		if rc.Trace {
			return traceSweep(sh, rc)
		}
		return runSweep(sh, rc)
	}
}

func runSweep(sh sweepShape, rc runConfig) (*report, error) {
	run, setups, err := repeatSetup(rc.Setups,
		func() (*sweepRun, error) { return setupSweep(sh, rc.Seed) },
		func(*sweepRun) error { return nil })
	if err != nil {
		return nil, err
	}
	var mismatch string
	var m meter
	runErr := m.run(rc.measuredLimit(), func() (int, error) {
		table, digest, ops, err := sweepRound(run.specs, sh, sh.Parallel, nil, nil)
		if err == nil && mismatch == "" {
			mismatch = run.check(fmt.Sprintf("round at Parallel %d", sh.Parallel), table, digest)
		}
		return ops, err
	})
	if runErr != nil {
		return nil, runErr
	}
	if mismatch == "" {
		table, digest, _, err := sweepRound(run.specs, sh, 1, nil, nil)
		if err != nil {
			return nil, err
		}
		mismatch = run.check("round at Parallel 1", table, digest)
	}
	metrics, attempted, failed := endToEndMetrics(setups, &m, 0)
	return &report{Attempted: attempted, Failed: failed, Metrics: metrics, Mismatch: mismatch}, nil
}

// traceSweep times each replica from the runner's Progress callback at
// Parallel 1 under a CPU profile, then runs untraced Parallel-1 rounds for
// the same number of rounds. Both must reproduce the Parallel-2 reference.
func traceSweep(sh sweepShape, rc runConfig) (*report, error) {
	run, err := setupSweep(sh, rc.Seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tr := newTracer(t0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var mismatch string
	lim := rc.measuredLimit()
	rounds, ops := 0, 0
	start := time.Now()
	for {
		round := rounds + 1
		replica := 0
		var mark int64
		table, digest, n, err := sweepRound(run.specs, sh, 1,
			func() { mark = tr.now() },
			func(int, int) {
				now := tr.now()
				tr.add(lReplica, round, replica, mark, now)
				mark = now
				replica++
			})
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		if mismatch == "" {
			mismatch = run.check("traced round at Parallel 1", table, digest)
		}
		rounds++
		ops += n
		if lim.reached(ops, start) {
			break
		}
	}
	traced := time.Since(start)
	pprof.StopCPUProfile()
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, err
	}

	var m meter
	runErr := m.run(limit{ops: ops}, func() (int, error) {
		table, digest, n, err := sweepRound(run.specs, sh, 1, nil, nil)
		if err == nil && mismatch == "" {
			mismatch = run.check("untraced round at Parallel 1", table, digest)
		}
		return n, err
	})
	if runErr != nil {
		return nil, runErr
	}

	replicaMs := make([]float64, len(tr.spans))
	for i, s := range tr.spans {
		replicaMs[i] = float64(s.End-s.Start) / 1e6
	}
	ms := layerMetrics()
	set(ms, "scenario.replica.ms_p50", quantile(replicaMs, 0.5))
	set(ms, "scenario.replica.ms_p90", quantile(replicaMs, 0.9))
	for _, pkg := range []string{"netsim", "monitor", "core", "scenario", "runtime_malloc"} {
		set(ms, "cpu."+pkg, shares[pkg])
	}
	set(ms, "runtime.gc_share", m.gcShare)
	set(ms, "trace.overhead", float64(traced.Nanoseconds())/float64(ops)/m.perOpNs())
	if rc.TraceDir != "" {
		if err := tr.writeSpans(rc.TraceDir, "catalog-sweep", rc.Seed); err != nil {
			return nil, err
		}
	}
	return &report{Attempted: ops, Metrics: ms, Mismatch: mismatch}, nil
}
