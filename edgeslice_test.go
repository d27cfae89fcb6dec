package edgeslice_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"edgeslice"
)

func TestFacadeTAROSystem(t *testing.T) {
	cfg := edgeslice.DefaultConfig()
	cfg.Algo = edgeslice.AlgoTARO
	sys, err := edgeslice.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	h, err := sys.RunPeriods(3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Intervals() != 3*cfg.EnvTemplate.T {
		t.Errorf("intervals = %d", h.Intervals())
	}
}

func TestFacadeTrainSaveLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := edgeslice.DefaultConfig()
	cfg.TrainSteps = 800
	sys, err := edgeslice.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := edgeslice.SaveAgent(&buf, sys, 0); err != nil {
		t.Fatal(err)
	}
	agent, err := edgeslice.LoadAgent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := agent.Act([]float64{0.1, 0.2, -0.3, -0.4})
	if len(out) != 6 {
		t.Errorf("loaded agent action dim %d, want 6", len(out))
	}
}

func TestFacadeEnvAndTrace(t *testing.T) {
	envCfg := edgeslice.DefaultEnvConfig()
	env, err := edgeslice.NewEnv(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	state := env.Reset()
	if len(state) != env.StateDim() {
		t.Errorf("state dim mismatch: %d vs %d", len(state), env.StateDim())
	}
	trace, err := edgeslice.SynthesizeTrace(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if trace.NumAreas() != 4 {
		t.Errorf("trace areas = %d", trace.NumAreas())
	}
}

// TestFacadeDistributed drives Algorithm 1 through the public distributed
// API — a hub, one agent over TCP, and the remote engine — and requires the
// History a local run with the same policy records.
func TestFacadeDistributed(t *testing.T) {
	const periods = 2
	cfg := edgeslice.DefaultConfig()
	cfg.NumRAs = 1

	local, err := edgeslice.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.SetAgents([]edgeslice.Agent{stubAgent{dim: local.Env(0).ActionDim()}}); err != nil {
		t.Fatal(err)
	}
	want, err := local.RunPeriods(periods)
	if err != nil {
		t.Fatal(err)
	}

	hub, err := edgeslice.NewHub("127.0.0.1:0", cfg.EnvTemplate.NumSlices, cfg.NumRAs)
	if err != nil {
		t.Fatal(err)
	}
	exec := edgeslice.NewRemoteExecutor(hub, 5*time.Second)
	defer func() { _ = exec.Close() }()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		envCfg := cfg.EnvTemplate
		envCfg.TrainCoordRandom = false
		envCfg.Seed = cfg.Seed // RA 0's seed under NewSystem's derivation
		env, err := edgeslice.NewEnv(envCfg)
		if err != nil {
			t.Errorf("env: %v", err)
			return
		}
		client, err := edgeslice.DialAgent(hub.Addr(), 0, 5*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer client.Close()
		policy := stubAgent{dim: env.ActionDim()}
		if err := edgeslice.RunAgent(client, env, policy, 5*time.Second); err != nil {
			t.Errorf("agent: %v", err)
		}
	}()

	if err := hub.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys, err := edgeslice.NewSystem(cfg) // shape and coordinator only
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.RunPeriodsWith(exec, periods)
	if err != nil {
		t.Fatal(err)
	}
	if got.Periods() != periods || len(got.SLAMet) != periods || len(got.Primal) != periods {
		t.Errorf("history holds %d periods (%d SLA rows, %d residuals), want %d",
			got.Periods(), len(got.SLAMet), len(got.Primal), periods)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("distributed history differs from the local run")
	}
	if err := exec.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

type stubAgent struct{ dim int }

func (s stubAgent) Act([]float64) []float64 {
	out := make([]float64, s.dim)
	for i := range out {
		out[i] = 0.4
	}
	return out
}

func nnTestRNG() *rand.Rand { return rand.New(rand.NewSource(7)) } //nolint:gosec // bench determinism
