package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"edgeslice/internal/nn"
	"edgeslice/internal/rcnet"
)

// shardTestConfig widens the executor-test config to 5 RAs, enough for
// five distinct agent arrival orders.
func shardTestConfig(algo Algorithm) Config {
	cfg := execTestConfig(algo)
	cfg.NumRAs = 5
	return cfg
}

// TestShardedRemoteMatchesSerial is the remote engine's determinism gate:
// it must reproduce the serial run bit for bit — History and monitor
// series — whatever order the agents register in. The subtest names
// predate the one-table hub; subtest N now dials the agents in RA order
// rotated to start at RA N mod J, so each subtest pins a different
// arrival order.
func TestShardedRemoteMatchesSerial(t *testing.T) {
	cfg := shardTestConfig(AlgoTARO)
	const periods = 3
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(periods)
	if err != nil {
		t.Fatal(err)
	}
	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			hub, err := rcnet.NewHub("127.0.0.1:0", I, J)
			if err != nil {
				t.Fatal(err)
			}
			dones := make([]chan error, J)
			for k := 0; k < J; k++ {
				j := (shards + k) % J
				_, dones[j] = startRemoteAgent(t, hub, cfg, j)
			}
			if err := hub.WaitRegistered(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e := NewRemoteExecutor(hub, 10*time.Second)
			h, err := sys.RunPeriodsWith(e, periods)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < J; j++ {
				if err := <-dones[j]; err != nil {
					t.Errorf("agent %d: %v", j, err)
				}
			}
			requireSameRun(t, fmt.Sprintf("remote, first RA %d", shards%J), hRef, h, ref.Monitor(), sys.Monitor())
		})
	}
}

// TestShardedRemoteSurvivesAgentKillAndRestart reruns the kill-and-restart
// acceptance shape over 5 RAs: the victim crashes on receiving period 2's
// broadcast, its replacement re-registers into its slot, replays the
// resume frame, serves the retried period — and the stitched run stays
// bit-identical to an uninterrupted serial run.
func TestShardedRemoteSurvivesAgentKillAndRestart(t *testing.T) {
	cfg := shardTestConfig(AlgoTARO)
	const (
		periods     = 4
		victim      = 2
		crashPeriod = 2
	)
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(periods)
	if err != nil {
		t.Fatal(err)
	}

	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	hub, err := rcnet.NewHub("127.0.0.1:0", I, J)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	agentErrs := make([]error, J)
	for j := 0; j < J; j++ {
		if j == victim {
			continue
		}
		j := j
		env := remoteAgentEnv(t, cfg, j)
		client, err := rcnet.DialAgent(hub.Addr(), j, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			agentErrs[j] = rcnet.RunAgent(client, env, taroFor(env), 10*time.Second)
		}()
	}

	env1 := remoteAgentEnv(t, cfg, victim)
	c1, err := rcnet.DialAgent(hub.Addr(), victim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pol := taroFor(env1)
		for {
			m, err := c1.Recv(10 * time.Second)
			if err != nil {
				agentErrs[victim] = err
				return
			}
			if m.Type != rcnet.MsgCoordination {
				continue
			}
			if m.Period == crashPeriod {
				_ = c1.Close() // crash mid-period, before reporting
				break
			}
			perf, queues, recs, err := stepAgentPeriod(env1, pol, m.Z, m.Y)
			if err != nil {
				agentErrs[victim] = err
				return
			}
			if err := c1.Report(m.Period, perf, queues, recs); err != nil {
				agentErrs[victim] = err
				return
			}
		}
		// Second incarnation: fresh env, same seed; the hub's resume frame
		// replays periods 0..crashPeriod-1, then the retry broadcast delivers
		// crashPeriod live.
		env2 := remoteAgentEnv(t, cfg, victim)
		c2, err := rcnet.DialAgent(hub.Addr(), victim, 5*time.Second)
		if err != nil {
			agentErrs[victim] = err
			return
		}
		defer c2.Close()
		agentErrs[victim] = rcnet.RunAgent(c2, env2, taroFor(env2), 10*time.Second)
	}()

	if err := hub.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewRemoteExecutorWithOptions(hub, RemoteOptions{Timeout: time.Second, RetryPeriods: 5})
	h, err := sys.RunPeriodsWith(e, periods)
	if err != nil {
		t.Fatal(err)
	}
	stats := hub.Stats()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for j, err := range agentErrs {
		if err != nil {
			t.Errorf("agent %d: %v", j, err)
		}
	}
	if stats.Reconnects < 1 || stats.ResumesSent < 1 {
		t.Errorf("stats = %+v, want at least one reconnect and one resume frame", stats)
	}
	requireSameRun(t, "kill-restart, 5 RAs", hRef, h, ref.Monitor(), sys.Monitor())
}

// TestRemoteLocalRAsMatchesSerial pins the mixed local/remote mode on a
// baseline deployment: RAs 1 and 3 run in-process (per-RA fallback, since
// TARO has no batched path), the rest dial in, and the merged run is
// bit-identical to the serial run.
func TestRemoteLocalRAsMatchesSerial(t *testing.T) {
	cfg := shardTestConfig(AlgoTARO)
	const periods = 3
	locals := []int{1, 3}
	remotes := []int{0, 2, 4}
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(periods)
	if err != nil {
		t.Fatal(err)
	}

	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	hub, err := rcnet.NewHub("127.0.0.1:0", I, J)
	if err != nil {
		t.Fatal(err)
	}
	dones := make(map[int]chan error, len(remotes))
	for _, j := range remotes {
		_, dones[j] = startRemoteAgent(t, hub, cfg, j)
	}
	if err := hub.WaitRegisteredRAs(5*time.Second, remotes); err != nil {
		t.Fatal(err)
	}
	sys := deployedSystem(t, cfg) // locals step the system's own envs/agents
	e := NewRemoteExecutorWithOptions(hub, RemoteOptions{Timeout: 10 * time.Second, LocalRAs: locals})
	h, err := sys.RunPeriodsWith(e, periods)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for j, done := range dones {
		if err := <-done; err != nil {
			t.Errorf("agent %d: %v", j, err)
		}
	}
	requireSameRun(t, "local-ras", hRef, h, ref.Monitor(), sys.Monitor())
}

// TestRemoteLocalRAsBatchedMatchesSerial exercises the grouped-wide-forward
// path of the local subset: a learning deployment whose local RAs share one
// policy, so they batch into a single wide forward per interval, while the
// remote RAs run an identically-weighted copy of the policy — the merged
// run must still match the serial run bit for bit.
func TestRemoteLocalRAsBatchedMatchesSerial(t *testing.T) {
	cfg := shardTestConfig(AlgoEdgeSlice)
	const periods = 2
	locals := []int{0, 2, 3}
	remotes := []int{1, 4}
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(periods)
	if err != nil {
		t.Fatal(err)
	}

	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	hub, err := rcnet.NewHub("127.0.0.1:0", I, J)
	if err != nil {
		t.Fatal(err)
	}
	dones := make(map[int]chan error, len(remotes))
	for _, j := range remotes {
		j := j
		env := remoteAgentEnv(t, cfg, j)
		// Rebuild deployedSystem's deterministic actor so the remote copy
		// computes bit-identical actions to the local batched forwards.
		rng := rand.New(rand.NewSource(7))
		actor := nn.NewMLP(rng, env.StateDim(),
			nn.LayerSpec{Out: 16, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: env.ActionDim(), Act: nn.ActSigmoid},
		)
		client, err := rcnet.DialAgent(hub.Addr(), j, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		dones[j] = done
		go func() {
			defer client.Close()
			done <- rcnet.RunAgent(client, env, newPooledPolicy(actor), 10*time.Second)
		}()
	}
	if err := hub.WaitRegisteredRAs(5*time.Second, remotes); err != nil {
		t.Fatal(err)
	}
	sys := deployedSystem(t, cfg)
	e := NewRemoteExecutorWithOptions(hub, RemoteOptions{
		Timeout: 10 * time.Second, LocalRAs: locals, LocalWorkers: 2,
	})
	h, err := sys.RunPeriodsWith(e, periods)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for j, done := range dones {
		if err := <-done; err != nil {
			t.Errorf("agent %d: %v", j, err)
		}
	}
	requireSameRun(t, "local-ras-batched", hRef, h, ref.Monitor(), sys.Monitor())
}

// TestRemoteLocalRAsValidation pins the LocalRAs preconditions.
func TestRemoteLocalRAsValidation(t *testing.T) {
	cfg := execTestConfig(AlgoTARO)
	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	run := func(t *testing.T, sys *System, locals []int) error {
		t.Helper()
		hub, err := rcnet.NewHub("127.0.0.1:0", I, J)
		if err != nil {
			t.Fatal(err)
		}
		e := NewRemoteExecutorWithOptions(hub, RemoteOptions{Timeout: time.Second, LocalRAs: locals})
		defer e.Close()
		_, err = sys.RunPeriodsWith(e, 1)
		return err
	}
	untrained, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(t, untrained, []int{0}); err == nil {
		t.Error("local RAs on an untrained system should fail")
	}
	trained := deployedSystem(t, cfg)
	if err := run(t, trained, []int{2, 0}); err == nil {
		t.Error("unsorted LocalRAs should fail")
	}
	if err := run(t, trained, []int{0, 0}); err == nil {
		t.Error("duplicate LocalRAs should fail")
	}
	if err := run(t, trained, []int{J}); err == nil {
		t.Error("out-of-range LocalRAs should fail")
	}
}
