package rcnet

import (
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the test timeout expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReRegistrationSupersedes pins the fault-tolerant registration
// contract: a second registration for an RA is not rejected — it replaces
// the stale connection (which the hub closes) and the new connection
// serves the next round. This is what lets a restarted agent rejoin
// immediately instead of waiting for the old socket to hit a write
// timeout.
func TestReRegistrationSupersedes(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	c1, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	c2, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitFor(t, "supersede", func() bool { return h.Stats().Superseded >= 1 })

	// The stale connection was closed by the hub.
	if _, _, _, err := recvCoordination(c1, testTimeout); err == nil {
		t.Error("superseded connection should be closed, not served")
	}
	// The new connection serves a full round.
	grid := [][]float64{{0}}
	if err := broadcastAll(h, 0, grid, grid); err != nil {
		t.Fatal(err)
	}
	p, _, _, err := recvCoordination(c2, testTimeout)
	if err != nil {
		t.Fatalf("re-registered agent got no coordination: %v", err)
	}
	if p != 0 {
		t.Fatalf("period = %d, want 0", p)
	}
	if err := c2.Report(0, []float64{-7}, nil, nil); err != nil {
		t.Fatal(err)
	}
	perf, err := collectPerf(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if perf[0][0] != -7 {
		t.Errorf("perf = %v, want [[-7]]", perf)
	}
	if s := h.Stats(); s.Reconnects < 1 {
		t.Errorf("stats report %d reconnects, want >= 1", s.Reconnects)
	}
}

// TestRedialChurnRecovers hammers the registration path with concurrent
// dial/close churn while the liveness reaper, broadcasts, and stats
// readers run — primarily a -race exercise of supersede/drop/reap — and
// then requires that a fresh heartbeating agent can still complete a full
// round.
func TestRedialChurnRecovers(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	h.SetLiveness(200 * time.Millisecond)

	grid := [][]float64{{0}}
	stopC := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopC:
					return
				default:
				}
				c, err := DialAgent(h.Addr(), 0, time.Second)
				if err != nil {
					continue
				}
				_ = c.Close()
			}
		}()
	}
	churnDeadline := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(churnDeadline) {
		_ = broadcastAll(h, 0, grid, grid) // races with churn by design; errors expected
		_, _, _ = h.Liveness()
		_ = h.Stats()
		time.Sleep(time.Millisecond)
	}
	close(stopC)
	wg.Wait()

	// Recovery: a fresh agent must win the RA slot and complete a round.
	// Stale registrations from the churn can briefly supersede it, so the
	// whole dial-and-serve attempt retries.
	deadline := time.Now().Add(testTimeout)
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			t.Fatal("no agent completed a round after churn")
		}
		c, err := DialAgent(h.Addr(), 0, time.Second)
		if err != nil {
			continue
		}
		stop := c.StartHeartbeat(25 * time.Millisecond)
		ok := func() bool {
			for time.Now().Before(deadline) {
				// The broadcast may land on a conn a stale registration is
				// about to supersede, so a recv timeout just means "try the
				// round again"; only a real conn error warrants a redial.
				_ = broadcastAll(h, 9, grid, grid)
				p, _, _, err := recvCoordination(c, 200*time.Millisecond)
				if err != nil {
					var nerr net.Error
					if errors.As(err, &nerr) && nerr.Timeout() {
						continue
					}
					return false // conn lost to a stale supersede; redial
				}
				if p != 9 {
					continue
				}
				if err := c.Report(9, []float64{-9}, nil, nil); err != nil {
					return false
				}
				perf, err := collectPerf(h, 9, testTimeout)
				if err != nil {
					return false
				}
				if perf[0][0] != -9 {
					t.Fatalf("perf = %v, want [[-9]]", perf)
				}
				return true
			}
			return false
		}()
		stop()
		_ = c.Close()
		if ok {
			return
		}
	}
}

// TestWaitRegisteredReportsFinalCount pins the S2 fix: the timeout error
// must carry the registration count at the moment of the timeout, not a
// count snapshotted before the final wait.
func TestWaitRegisteredReportsFinalCount(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	for ra := 0; ra < 2; ra++ {
		c, err := DialAgent(h.Addr(), ra, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitFor(t, "two registrations", func() bool {
		_, reg, _ := h.Liveness()
		return reg == 2
	})
	err = h.WaitRegistered(200 * time.Millisecond)
	if err == nil {
		t.Fatal("WaitRegistered should time out with one RA missing")
	}
	if !strings.Contains(err.Error(), "2/3") {
		t.Errorf("timeout error %q should report the final count 2/3", err)
	}
}

// TestDialAgentClearsHandshakeDeadline pins the S3 fix: the write deadline
// that bounds the register frame must be cleared once the handshake is
// done, or the first report after an idle stretch fails spuriously.
func TestDialAgentClearsHandshakeDeadline(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	c, err := DialAgent(h.Addr(), 0, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // well past the handshake deadline
	if err := c.Report(0, []float64{1}, nil, nil); err != nil {
		t.Fatalf("report after an idle stretch: %v (stale handshake write deadline?)", err)
	}
	perf, err := collectPerf(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if perf[0][0] != 1 {
		t.Errorf("perf = %v, want [[1]]", perf)
	}
}

// TestHeartbeatKeepsAgentLiveSilentOneReaped covers the liveness plane: a
// heartbeating agent stays registered and live while a silent one is
// reaped, and both sides count the heartbeats.
func TestHeartbeatKeepsAgentLiveSilentOneReaped(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	h.SetLiveness(500 * time.Millisecond)

	c0, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	stop := c0.StartHeartbeat(50 * time.Millisecond)
	defer stop()
	c1, err := DialAgent(h.Addr(), 1, testTimeout) // never heartbeats
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "silent agent reaped", func() bool { return h.Stats().Reaped >= 1 })
	waitFor(t, "reaped conn dropped", func() bool {
		live, reg, exp := h.Liveness()
		return live == 1 && reg == 1 && exp == 2
	})
	if s := h.Stats(); s.Heartbeats == 0 {
		t.Error("hub counted no heartbeats")
	}
	if s := c0.Stats(); s.HeartbeatsSent == 0 {
		t.Error("client counted no heartbeats sent")
	}
	// The surviving RA is still serviceable via the partial-broadcast path.
	z := [][]float64{{0, 0}}
	if err := h.BroadcastTo(0, z, z, []int{0}); err != nil {
		t.Fatalf("broadcast to the surviving RA: %v", err)
	}
	if p, _, _, err := recvCoordination(c0, testTimeout); err != nil || p != 0 {
		t.Fatalf("surviving RA recv: period=%d err=%v", p, err)
	}
}

// TestResumeCatchUpReplay is the rcnet half of the resume contract: an
// agent registering into a primed hub receives the coordination history,
// replays it against a fresh deterministic env, and its first live report
// is bit-identical to an agent that lived through all periods.
func TestResumeCatchUpReplay(t *testing.T) {
	const donePeriods = 2
	ref := testEnv(t, 11)
	refPolicy := taroPolicy(ref)
	I := ref.Config().NumSlices

	col := func(p int, base float64) []float64 {
		c := make([]float64, I)
		for i := range c {
			c[i] = base - float64(p*3+i)
		}
		return c
	}
	grid := func(c []float64) [][]float64 {
		g := make([][]float64, len(c))
		for i, v := range c {
			g[i] = []float64{v}
		}
		return g
	}

	// Reference: live through periods 0..donePeriods locally.
	for p := 0; p < donePeriods; p++ {
		if _, _, _, err := stepPeriod(ref, refPolicy, col(p, -40), col(p, 0)); err != nil {
			t.Fatal(err)
		}
	}
	wantPerf, wantQueues, _, err := stepPeriod(ref, refPolicy, col(donePeriods, -40), col(donePeriods, 0))
	if err != nil {
		t.Fatal(err)
	}

	h, err := NewHub("127.0.0.1:0", I, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	zs := make([][][]float64, donePeriods)
	ys := make([][][]float64, donePeriods)
	for p := 0; p < donePeriods; p++ {
		zs[p] = grid(col(p, -40))
		ys[p] = grid(col(p, 0))
	}
	if err := h.PrimeResume(donePeriods, zs, ys); err != nil {
		t.Fatal(err)
	}

	env := testEnv(t, 11) // fresh copy of the reference env
	c, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var agentErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Close()
		agentErr = RunAgent(c, env, taroPolicy(env), testTimeout)
	}()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := broadcastAll(h, donePeriods, grid(col(donePeriods, -40)), grid(col(donePeriods, 0))); err != nil {
		t.Fatal(err)
	}
	reports, err := collectReports(h, donePeriods, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if !reflect.DeepEqual(rep.Perf, wantPerf) {
		t.Errorf("resumed agent perf %v, want %v", rep.Perf, wantPerf)
	}
	if !reflect.DeepEqual(rep.Queues, wantQueues) {
		t.Errorf("resumed agent queues %v, want %v", rep.Queues, wantQueues)
	}
	if s := h.Stats(); s.ResumesSent != 1 {
		t.Errorf("stats report %d resume frames, want 1", s.ResumesSent)
	}
	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if agentErr != nil {
		t.Errorf("agent: %v", agentErr)
	}
}

// TestCollectKeepsPartialProgressAcrossAttempts pins the retry-path
// collection semantics: a timed-out collect keeps the reports that did
// arrive, a second attempt drains duplicates and stale-period reports
// without letting them overwrite, and completes on the missing RA's
// report.
func TestCollectKeepsPartialProgressAcrossAttempts(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	c0, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := DialAgent(h.Addr(), 1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}

	// RA 0 reports promptly; RA 1 stays silent past the first attempt.
	if err := c0.Report(0, []float64{-1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := make([]Envelope, 2)
	got := make([]bool, 2)
	n, err := h.CollectReportsInto(0, 300*time.Millisecond, out, got)
	if err == nil {
		t.Fatal("collect should time out with RA 1 silent")
	}
	if n != 1 || !got[0] || got[1] {
		t.Fatalf("after timeout: n=%d got=%v, want partial progress for RA 0 only", n, got)
	}
	if !strings.Contains(err.Error(), "1/2 reports for period 0") {
		t.Errorf("timeout error %q should report 1/2 for period 0", err)
	}

	// Second attempt: RA 0's duplicate re-report (what a retried broadcast
	// triggers) and a stale-period report must both be dropped, then RA 1's
	// report completes the set.
	if err := c0.Report(0, []float64{-99}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c0.Report(7, []float64{-77}, nil, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let both frames queue ahead of RA 1's
	if err := c1.Report(0, []float64{-2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	n, err = h.CollectReportsInto(0, testTimeout, out, got)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	if out[0].Perf[0] != -1 {
		t.Errorf("RA 0's report = %v, duplicate must not overwrite the original -1", out[0].Perf)
	}
	if out[1].Perf[0] != -2 {
		t.Errorf("RA 1's report = %v, want -2", out[1].Perf)
	}
	if s := h.Stats(); s.ReportsDropped < 2 {
		t.Errorf("stats report %d dropped reports, want >= 2 (duplicate + stale period)", s.ReportsDropped)
	}
}

// TestPrimeResumeValidation pins PrimeResume's preconditions.
func TestPrimeResumeValidation(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	bad := [][][]float64{{{0}}} // 1 slice, want 2
	if err := h.PrimeResume(1, bad, bad); err == nil {
		t.Error("mis-shaped grids should be rejected")
	}
	okGrid := [][][]float64{{{0}, {0}}}
	if err := h.PrimeResume(2, okGrid, okGrid); err == nil {
		t.Error("period/grid count mismatch should be rejected")
	}
	c, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := h.PrimeResume(1, okGrid, okGrid); err == nil {
		t.Error("priming after an agent registered should be rejected")
	}
}

// TestRegisterFrameBudget bounds what unregistered peers can pin: 32 peers
// that each send only a binary header announcing a 4 MB register frame
// must be closed at once, well inside the register deadline, without the
// hub buffering the announced frames.
func TestRegisterFrameBudget(t *testing.T) {
	const peers = 32
	h, err := NewHub("127.0.0.1:0", 1, peers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	hdr := [binHeaderLen]byte{binMagic, kindRegister}
	binary.LittleEndian.PutUint32(hdr[2:], maxLineBytes)
	conns := make([]net.Conn, peers)
	for k := range conns {
		conn, err := net.Dial("tcp", h.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		conns[k] = conn
	}
	closeBy := time.Now().Add(registerTimeout / 2)
	open := 0
	for _, conn := range conns {
		_ = conn.SetReadDeadline(closeBy)
		if _, err := conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
			open++
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if open > 0 {
		t.Errorf("%d/%d over-budget peers still connected after %v", open, peers, registerTimeout/2)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 4<<20 {
		t.Errorf("%d header-only peers grew the live heap by %d bytes, want < 4 MB", peers, grown)
	}
	if _, reg, _ := h.Liveness(); reg != 0 {
		t.Errorf("%d RAs registered, want 0", reg)
	}
}

// TestSilentPeerClosedWithoutLiveness pins the register deadline: a peer
// that connects and never sends its register frame is closed even though
// liveness reaping (SetLiveness) is off.
func TestSilentPeerClosedWithoutLiveness(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	conn, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(registerTimeout + testTimeout))
	if _, err := conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("silent peer not closed by the hub within %v (read err %v)", registerTimeout+testTimeout, err)
	}
}
