package rcnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"edgeslice/internal/admm"
	"edgeslice/internal/baseline"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rl"
)

const testTimeout = 5 * time.Second

// broadcastAll sends the period's coordination to every RA of h.
func broadcastAll(h *Hub, period int, z, y [][]float64) error {
	ras := make([]int, h.NumRAs())
	for ra := range ras {
		ras[ra] = ra
	}
	return h.BroadcastTo(period, z, y, ras)
}

// collectReports waits for the period's report from every RA of h.
func collectReports(h *Hub, period int, timeout time.Duration) ([]Envelope, error) {
	out := make([]Envelope, h.NumRAs())
	if _, err := h.CollectReportsInto(period, timeout, out, make([]bool, h.NumRAs())); err != nil {
		return nil, err
	}
	return out, nil
}

// collectPerf is collectReports reduced to the perf[slice][ra] grid.
func collectPerf(h *Hub, period int, timeout time.Duration) ([][]float64, error) {
	reports, err := collectReports(h, period, timeout)
	if err != nil {
		return nil, err
	}
	perf := make([][]float64, h.NumSlices())
	for i := range perf {
		perf[i] = make([]float64, h.NumRAs())
		for ra, m := range reports {
			perf[i][ra] = m.Perf[i]
		}
	}
	return perf, nil
}

// writeMsg sends one envelope as a JSON line.
func writeMsg(w io.Writer, e Envelope) error {
	return newMsgWriter(w, CodecJSON, nil).write(e)
}

// readMsg reads one frame of either codec.
func readMsg(br *bufio.Reader) (Envelope, error) {
	return (&msgReader{br: br}).read()
}

var errShutdown = errors.New("hub shut down the session")

// recvCoordination blocks for the next coordination frame, skipping resume
// frames; a shutdown frame yields errShutdown.
func recvCoordination(c *AgentClient, timeout time.Duration) (period int, z, y []float64, err error) {
	for {
		m, err := c.Recv(timeout)
		if err != nil {
			return 0, nil, nil, err
		}
		switch m.Type {
		case MsgShutdown:
			return 0, nil, nil, errShutdown
		case MsgCoordination:
			return m.Period, m.Z, m.Y, nil
		}
	}
}

func TestHubValidation(t *testing.T) {
	if _, err := NewHub("127.0.0.1:0", 0, 1); err == nil {
		t.Error("zero slices should fail")
	}
	if _, err := NewHub("127.0.0.1:0", 1, 0); err == nil {
		t.Error("zero RAs should fail")
	}
}

func TestRegisterBroadcastCollect(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := h.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	var wg sync.WaitGroup
	for ra := 0; ra < 2; ra++ {
		wg.Add(1)
		go func(ra int) {
			defer wg.Done()
			c, err := DialAgent(h.Addr(), ra, testTimeout)
			if err != nil {
				t.Errorf("dial RA %d: %v", ra, err)
				return
			}
			defer c.Close()
			period, z, y, err := recvCoordination(c, testTimeout)
			if err != nil {
				t.Errorf("recv RA %d: %v", ra, err)
				return
			}
			if period != 0 || len(z) != 2 || len(y) != 2 {
				t.Errorf("RA %d got period=%d z=%v y=%v", ra, period, z, y)
				return
			}
			if err := c.Report(0, []float64{-1 - float64(ra), -2 - float64(ra)}, []int{0, 0}, nil); err != nil {
				t.Errorf("report RA %d: %v", ra, err)
			}
		}(ra)
	}

	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	z := [][]float64{{0, 0}, {0, 0}}
	y := [][]float64{{0, 0}, {0, 0}}
	if err := broadcastAll(h, 0, z, y); err != nil {
		t.Fatal(err)
	}
	perf, err := collectPerf(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if perf[0][0] != -1 || perf[0][1] != -2 || perf[1][0] != -2 || perf[1][1] != -3 {
		t.Errorf("perf = %v", perf)
	}
}

func TestMalformedFrameDropsAgent(t *testing.T) {
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
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitRegistered(300 * time.Millisecond); err == nil {
		t.Error("malformed registration should not register")
	}
}

func TestCollectTimesOutOnSilentAgent(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	c, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := broadcastAll(h, 0, [][]float64{{0}}, [][]float64{{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := collectPerf(h, 0, 200*time.Millisecond); err == nil {
		t.Error("collect should time out when the agent never reports")
	}
}

func TestAgentDisconnectMidRound(t *testing.T) {
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
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	// RA 1 dies before the round.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the hub notice
	err = broadcastAll(h, 0, [][]float64{{0, 0}}, [][]float64{{0, 0}})
	if err == nil {
		t.Error("broadcast should fail when an RA is gone")
	}
}

// Regression: a stalled agent (registered but never reading) must not
// head-of-line block Broadcast for healthy RAs. The hub writes outside its
// lock with a write deadline and drops the offender.
func TestBroadcastSurvivesStalledAgent(t *testing.T) {
	const numSlices = 2048 // big frames so the stalled socket fills quickly
	h, err := NewHub("127.0.0.1:0", numSlices, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()
	h.SetWriteTimeout(150 * time.Millisecond)

	// RA 0 is healthy and keeps draining coordination messages.
	c0, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	received := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, _, _, err := recvCoordination(c0, time.Second); err != nil {
				received <- n
				return
			}
			n++
		}
	}()

	// RA 1 registers and then never reads.
	stalled, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := writeMsg(stalled, Envelope{Type: MsgRegister, RA: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}

	z := make([][]float64, numSlices)
	y := make([][]float64, numSlices)
	for i := range z {
		z[i] = []float64{0.123456789, 0.987654321}
		y[i] = []float64{0.123456789, 0.987654321}
	}
	var broadcasts int
	var bErr error
	for i := 0; i < 1000 && bErr == nil; i++ {
		bErr = broadcastAll(h, i, z, y)
		broadcasts++
	}
	if bErr == nil {
		t.Fatal("broadcast never failed although RA 1 stopped reading")
	}

	// The offender was dropped: the next round fails fast instead of
	// stalling again.
	if err := broadcastAll(h, broadcasts, z, y); err == nil {
		t.Error("broadcast should fail once the stalled RA was dropped")
	}

	// The healthy RA received its coordination in every round, including
	// the one where RA 1 timed out and the one after RA 1 was dropped.
	n := <-received
	if n != broadcasts+1 {
		t.Errorf("healthy RA received %d/%d coordination messages", n, broadcasts+1)
	}
}

// Regression: an agent reconnecting after WaitRegistered has returned must
// still be served. The buffered registration channel can be full of stale
// notifications; the hub used to block its per-connection goroutine on the
// send, so the reconnected agent's reports were never pumped.
func TestReconnectAfterWaitRegistered(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	dial := func() *AgentClient {
		t.Helper()
		c, err := DialAgent(h.Addr(), 0, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	grid := [][]float64{{0}}
	waitConnected := func(period int) {
		t.Helper()
		deadline := time.Now().Add(testTimeout)
		for {
			if err := broadcastAll(h, period, grid, grid); err == nil {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("agent never became usable: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitDisconnected := func() {
		t.Helper()
		deadline := time.Now().Add(testTimeout)
		for broadcastAll(h, -1, grid, grid) == nil {
			if time.Now().After(deadline) {
				t.Fatal("hub never noticed the disconnect")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	c0 := dial()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	_ = c0.Close()
	waitDisconnected()

	// First reconnect fills the (capacity-1) registration channel that
	// nobody drains any more.
	c1 := dial()
	waitConnected(1)
	_ = c1.Close()
	waitDisconnected()

	// Second reconnect hits the full channel. It must still get a working
	// read loop: coordination in, perf report out, Collect succeeds.
	c2 := dial()
	defer c2.Close()
	waitConnected(2)
	period := -1
	for period != 2 { // skip frames from earlier rounds
		p, _, _, err := recvCoordination(c2, testTimeout)
		if err != nil {
			t.Fatalf("reconnected agent got no coordination: %v", err)
		}
		period = p
	}
	if err := c2.Report(period, []float64{-1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	perf, err := collectPerf(h, period, testTimeout)
	if err != nil {
		t.Fatalf("reconnected agent's report was never pumped: %v", err)
	}
	if perf[0][0] != -1 {
		t.Errorf("perf = %v, want [[-1]]", perf)
	}
}

// End-to-end: full distributed Algorithm 1 over real TCP with simulated
// environments and the TARO policy (no training needed for a protocol
// test). The hub side is the bare broadcast → collect → ADMM update →
// FinishPeriod loop that core's remote engine wraps.
func TestDistributedOrchestration(t *testing.T) {
	const (
		numSlices = 2
		numRAs    = 2
		periods   = 3
	)
	h, err := NewHub("127.0.0.1:0", numSlices, numRAs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	var wg sync.WaitGroup
	agentErrs := make(chan error, numRAs)
	for ra := 0; ra < numRAs; ra++ {
		env := testEnv(t, int64(ra+1))
		c, err := DialAgent(h.Addr(), ra, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			if err := RunAgent(c, env, taroPolicy(env), testTimeout); err != nil {
				agentErrs <- err
			}
		}()
	}

	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	coord, err := admm.NewCoordinator(admm.Config{
		NumSlices: numSlices, NumRAs: numRAs, Rho: 1.0,
		UminPerSlice: []float64{-50, -50},
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < periods; p++ {
		if err := broadcastAll(h, p, coord.Z(), coord.Y()); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		perf, err := collectPerf(h, p, testTimeout)
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if err := coord.Update(perf); err != nil {
			t.Fatal(err)
		}
		h.FinishPeriod(p)
	}
	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(agentErrs)
	for err := range agentErrs {
		if err != nil {
			t.Errorf("agent error: %v", err)
		}
	}
	if coord.Iterations() != periods {
		t.Errorf("coordinator ran %d iterations, want %d", coord.Iterations(), periods)
	}
}

// taroPolicy returns a deterministic queue-proportional policy over env.
func taroPolicy(env *netsim.RAEnv) rl.Agent {
	return rl.AgentFunc(func([]float64) []float64 {
		act, err := baseline.TARO(env.QueueLens(), netsim.NumResources)
		if err != nil {
			return make([]float64, env.ActionDim())
		}
		return act
	})
}

func testEnv(t *testing.T, seed int64) *netsim.RAEnv {
	t.Helper()
	envCfg := netsim.DefaultExperimentConfig()
	envCfg.TrainCoordRandom = false
	envCfg.Seed = seed
	env, err := netsim.New(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Reset()
	return env
}

// TestReportCarriesIntervalRecords verifies that RunAgent attaches one
// IntervalRecord per interval and that the records are consistent with the
// summary report: per-slice perf sums to the period perf exactly and the
// final queue snapshot matches.
func TestReportCarriesIntervalRecords(t *testing.T) {
	const numSlices = 2
	h, err := NewHub("127.0.0.1:0", numSlices, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	env := testEnv(t, 3)
	c, err := DialAgent(h.Addr(), 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Close()
		if err := RunAgent(c, env, taroPolicy(env), testTimeout); err != nil {
			t.Errorf("agent: %v", err)
		}
	}()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	z := [][]float64{{-50}, {-50}}
	y := [][]float64{{0}, {0}}
	if err := broadcastAll(h, 0, z, y); err != nil {
		t.Fatal(err)
	}
	reports, err := collectReports(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	T := env.Config().T
	if len(rep.Intervals) != T {
		t.Fatalf("report has %d interval records, want %d", len(rep.Intervals), T)
	}
	sums := make([]float64, numSlices)
	for tt, rec := range rep.Intervals {
		if len(rec.Perf) != numSlices || len(rec.Queues) != numSlices || len(rec.Effective) != numSlices {
			t.Fatalf("interval %d record shapes: perf=%d queues=%d eff=%d, want %d",
				tt, len(rec.Perf), len(rec.Queues), len(rec.Effective), numSlices)
		}
		for i := range rec.Effective {
			if len(rec.Effective[i]) != netsim.NumResources {
				t.Fatalf("interval %d slice %d has %d resources, want %d",
					tt, i, len(rec.Effective[i]), netsim.NumResources)
			}
		}
		for i := 0; i < numSlices; i++ {
			sums[i] += rec.Perf[i]
		}
	}
	for i := 0; i < numSlices; i++ {
		if sums[i] != rep.Perf[i] {
			t.Errorf("slice %d: interval perf sums to %v, summary reports %v", i, sums[i], rep.Perf[i])
		}
	}
	last := rep.Intervals[T-1]
	for i := 0; i < numSlices; i++ {
		if last.Queues[i] != rep.Queues[i] {
			t.Errorf("slice %d: final interval queue %d, summary queue %d", i, last.Queues[i], rep.Queues[i])
		}
	}
	_ = h.Shutdown()
	wg.Wait()
}

// TestReadMsgBoundsFrameDuringRead proves an endless newline-free frame is
// rejected at the maxLineBytes bound instead of buffering until OOM.
func TestReadMsgBoundsFrameDuringRead(t *testing.T) {
	// An infinite reader that never emits a newline.
	junk := readerFunc(func(p []byte) (int, error) {
		for i := range p {
			p[i] = 'x'
		}
		return len(p), nil
	})
	if _, err := readMsg(bufio.NewReaderSize(junk, 64*1024)); err == nil {
		t.Fatal("oversized frame should fail")
	} else if !strings.Contains(err.Error(), "frame too large") {
		t.Errorf("error %q should mention the frame bound", err)
	}
	// A frame just under the bound still parses.
	pad := strings.Repeat(" ", 1024)
	frame := `{"type":"register","ra":3}` + pad + "\n"
	m, err := readMsg(bufio.NewReader(strings.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgRegister || m.RA != 3 {
		t.Errorf("parsed %+v, want register ra=3", m)
	}
}

// TestBinaryDecoderBoundsIntervalCount crafts a max-size binary frame whose
// Intervals count is as large as the payload's remaining byte count: every
// count must be bounded by its elements' minimum encoded size, so the
// frame fails as malformed before the decoder allocates more than a small
// multiple of the frame (an IntervalRecord is 80 B in memory but at least
// 20 B on the wire).
func TestBinaryDecoderBoundsIntervalCount(t *testing.T) {
	frame := make([]byte, binHeaderLen+maxLineBytes)
	frame[0], frame[1] = binMagic, kindPerfReport
	binary.LittleEndian.PutUint32(frame[2:], maxLineBytes)
	// RA, Period, then empty Z, Y, Perf, and Queues counts: six int32s.
	off := binHeaderLen + 6*4
	binary.LittleEndian.PutUint32(frame[off:], uint32(len(frame)-off-4))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readMsg(bufio.NewReader(bytes.NewReader(frame)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "malformed frame") {
		t.Fatalf("inflated Intervals count: err = %v, want a malformed frame error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8*uint64(len(frame)) {
		t.Errorf("decoding a %d-byte frame allocated %d bytes, want < 8x the frame", len(frame), alloc)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
