// Distributed deployment: runs the EdgeSlice performance coordinator and
// two orchestration agents as separate network endpoints on localhost,
// speaking the RC protocol over real TCP (Sec. V-D). In production the
// agents would run on different machines next to their RAs; here they run
// in goroutines so the example is self-contained — the wire traffic is
// identical. The coordinator drives the remote execution engine, so the
// run records the full History of a local run: per-period performance,
// SLA flags, and primal/dual residuals.
package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"edgeslice"
)

const timeout = 2 * time.Minute

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "distributed: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const periods = 6

	// Train one shared policy first (in production: edgeslice-train once,
	// ship the checkpoint to every agent host — the train-once /
	// evaluate-many workflow of Sec. V).
	fmt.Println("training shared orchestration policy...")
	trainCfg := edgeslice.DefaultConfig()
	trainCfg.NumRAs = 1
	trainCfg.TrainSteps = 8000
	trainSys, err := edgeslice.NewSystem(trainCfg)
	if err != nil {
		return err
	}
	if err := trainSys.Train(); err != nil {
		return err
	}

	// The coordinator's System supplies the run's shape, the ADMM
	// coordinator, and the History; the environments of record live in
	// the agents.
	cfg := edgeslice.DefaultConfig()
	sys, err := edgeslice.NewSystem(cfg)
	if err != nil {
		return err
	}
	hub, err := edgeslice.NewHub("127.0.0.1:0", cfg.EnvTemplate.NumSlices, cfg.NumRAs)
	if err != nil {
		return err
	}
	exec := edgeslice.NewRemoteExecutor(hub, timeout)
	defer func() { _ = exec.Close() }()
	fmt.Printf("coordinator hub listening on %s\n", hub.Addr())

	var wg sync.WaitGroup
	errs := make(chan error, cfg.NumRAs)
	for ra := 0; ra < cfg.NumRAs; ra++ {
		wg.Add(1)
		go func(ra int) {
			defer wg.Done()
			if err := agentProcess(hub.Addr(), ra, cfg, trainSys); err != nil {
				errs <- fmt.Errorf("RA %d: %w", ra, err)
			}
		}(ra)
	}

	if err := hub.WaitRegistered(timeout); err != nil {
		return err
	}
	fmt.Println("all agents registered; running Algorithm 1...")

	h, err := sys.RunPeriodsWith(exec, periods)
	if err != nil {
		return err
	}
	fmt.Println("period | per-slice performance (sum over RAs) | SLA met | residuals")
	for p := 0; p < h.Periods(); p++ {
		perf := make([]float64, h.NumSlices)
		for i := range perf {
			for j := 0; j < h.NumRAs; j++ {
				perf[i] += h.PeriodPerf[p][i][j]
			}
		}
		fmt.Printf("%6d | %.1f | %v | primal=%.2f dual=%.2f\n",
			p, perf, h.SLAMet[p], h.Primal[p], h.Dual[p])
	}
	mp, err := h.MeanSystemPerf(h.Intervals() / 2)
	if err != nil {
		return err
	}
	sla, err := h.SLASatisfactionRate(0)
	if err != nil {
		return err
	}
	fmt.Printf("steady-state system performance: %.2f per interval\n", mp)
	fmt.Printf("SLA satisfaction: %.0f%%\n", sla*100)
	if err := exec.Close(); err != nil {
		return err
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	fmt.Println("distributed orchestration finished cleanly")
	return nil
}

// agentProcess is what each agent host runs: load the policy, build the
// local environment, connect to the coordinator, serve periods until
// shutdown. The environment is seeded the way NewSystem seeds RA ra's, so
// the distributed run records the same History a local one would.
func agentProcess(addr string, ra int, cfg edgeslice.Config, trained *edgeslice.System) error {
	envCfg := cfg.EnvTemplate
	envCfg.TrainCoordRandom = false
	envCfg.Seed = cfg.Seed + int64(ra)*7919
	env, err := edgeslice.NewEnv(envCfg)
	if err != nil {
		return err
	}

	// Serialize/deserialize the trained policy as a full-fidelity
	// checkpoint — the same bytes the edgeslice-train CLI writes to disk.
	var buf bytes.Buffer
	if err := edgeslice.SaveCheckpoint(&buf, trained, edgeslice.CheckpointOptions{}); err != nil {
		return err
	}
	policy, err := edgeslice.LoadAgent(&buf)
	if err != nil {
		return err
	}

	client, err := edgeslice.DialAgent(addr, ra, timeout)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()
	return edgeslice.RunAgent(client, env, policy, timeout)
}
