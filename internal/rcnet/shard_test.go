package rcnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestShardPartition pins register-range validation on the one conn
// table: a register frame naming RA -1 or RA J is refused (the hub closes
// the conn), and every RA in [0, J) registers into its own slot.
func TestShardPartition(t *testing.T) {
	const ras = 7
	h, err := NewHub("127.0.0.1:0", 2, ras)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	for _, bad := range []int{-1, ras} {
		conn, err := net.Dial("tcp", h.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeMsg(conn, Envelope{Type: MsgRegister, RA: bad}); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(testTimeout))
		if _, err := conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
			t.Errorf("register as RA %d: conn not closed by the hub (read err %v)", bad, err)
		}
		_ = conn.Close()
	}

	clients := make([]*AgentClient, ras)
	for ra := range clients {
		c, err := DialAgent(h.Addr(), ra, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[ra] = c
	}
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for ra, c := range clients {
		st := h.conns[ra]
		if st == nil || st.conn.RemoteAddr().String() != c.conn.LocalAddr().String() {
			t.Errorf("RA %d's slot does not hold RA %d's connection", ra, ra)
		}
	}
	if s := h.Stats(); s.Registrations != ras {
		t.Errorf("registrations = %d, want %d (refused frames must not count)", s.Registrations, ras)
	}
}

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// echoAgents dials one lightweight agent per RA, in RA order rotated to
// start at RA first, and answers every coordination frame with
// perf[i] = 2*z[i] - y[i] + ra, so the collected grid proves each RA
// received exactly its own coordination column. Codecs alternate per RA,
// exercising a mixed JSON/binary fleet.
func echoAgents(t *testing.T, h *Hub, ras, periods, first int) (*sync.WaitGroup, []error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, ras)
	for k := 0; k < ras; k++ {
		ra := (first + k) % ras
		codec := CodecJSON
		if ra%2 == 1 {
			codec = CodecBinary
		}
		c, err := DialAgentCodec(h.Addr(), ra, testTimeout, codec)
		if err != nil {
			errs[ra] = err
			continue
		}
		wg.Add(1)
		go func(ra int) {
			defer wg.Done()
			defer c.Close()
			for p := 0; p < periods; p++ {
				period, z, y, err := recvCoordination(c, 30*time.Second)
				if err != nil {
					errs[ra] = err
					return
				}
				perf := make([]float64, len(z))
				for i := range z {
					perf[i] = 2*z[i] - y[i] + float64(ra)
				}
				if err := c.Report(period, perf, nil, nil); err != nil {
					errs[ra] = err
					return
				}
			}
		}(ra)
	}
	return &wg, errs
}

// runEchoRounds drives the hub through the periods against echoAgents
// (dialed starting at RA first) and verifies every collected perf value
// against the expected echo, proving the conn table delivered the right
// column to the right RA and collect placed every report at its RA's
// index.
func runEchoRounds(t *testing.T, h *Hub, slices, ras, periods, first int) {
	t.Helper()
	wg, errs := echoAgents(t, h, ras, periods, first)
	if err := h.WaitRegistered(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < periods; p++ {
		z := make([][]float64, slices)
		y := make([][]float64, slices)
		for i := range z {
			z[i] = make([]float64, ras)
			y[i] = make([]float64, ras)
			for ra := 0; ra < ras; ra++ {
				z[i][ra] = float64(i+1)*0.5 + float64(ra)*0.25 + float64(p)*2
				y[i][ra] = float64(i)*0.125 - float64(ra)*0.5 + float64(p)
			}
		}
		if err := broadcastAll(h, p, z, y); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		perf, err := collectPerf(h, p, 30*time.Second)
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		for i := 0; i < slices; i++ {
			for ra := 0; ra < ras; ra++ {
				if want := 2*z[i][ra] - y[i][ra] + float64(ra); perf[i][ra] != want {
					t.Fatalf("period %d slice %d RA %d: perf %v, want %v", p, i, ra, perf[i][ra], want)
				}
			}
		}
	}
	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for ra, err := range errs {
		if err != nil {
			t.Errorf("agent %d: %v", ra, err)
		}
	}
}

// TestShardedBroadcastCollectRouting proves the register/broadcast/
// collect wiring at 64 RAs with a mixed JSON/binary fleet: every RA
// receives exactly its own coordination column and every report lands at
// its RA's index. The subtest names predate the one-table hub; subtest N
// now dials the agents in RA order rotated to start at RA N mod J, so each
// subtest registers the fleet in a different arrival order.
func TestShardedBroadcastCollectRouting(t *testing.T) {
	const ras, slices, periods = 64, 2, 3
	for _, shards := range []int{1, 2, 4, 5} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h, err := NewHub("127.0.0.1:0", slices, ras)
			if err != nil {
				t.Fatal(err)
			}
			runEchoRounds(t, h, slices, ras, periods, shards%ras)
		})
	}
}

// TestShardedRoutingAt1024RAs is the remote-scaling smoke: 1024 concurrent
// agent connections against one hub, every column routed correctly.
func TestShardedRoutingAt1024RAs(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-connection scaling test skipped in -short mode")
	}
	const ras, slices, periods = 1024, 2, 2
	h, err := NewHub("127.0.0.1:0", slices, ras)
	if err != nil {
		t.Fatal(err)
	}
	runEchoRounds(t, h, slices, ras, periods, 0)
}

// TestMixedCodecPeers pins the register-time negotiation: a JSON agent and
// a binary agent serve the same run, the hub answers each in its own codec,
// and both the hub's and the clients' wire stats record the split.
func TestMixedCodecPeers(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	cJSON, err := DialAgentCodec(h.Addr(), 0, testTimeout, CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	defer cJSON.Close()
	cBin, err := DialAgentCodec(h.Addr(), 1, testTimeout, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer cBin.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	agentErrs := make([]error, 2)
	for idx, c := range []*AgentClient{cJSON, cBin} {
		wg.Add(1)
		go func(idx int, c *AgentClient) {
			defer wg.Done()
			period, z, _, err := recvCoordination(c, testTimeout)
			if err != nil {
				agentErrs[idx] = err
				return
			}
			agentErrs[idx] = c.Report(period, []float64{z[0] + 1}, nil, nil)
		}(idx, c)
	}
	z := [][]float64{{0.5, -2.25}}
	y := [][]float64{{0, 0}}
	if err := broadcastAll(h, 0, z, y); err != nil {
		t.Fatal(err)
	}
	perf, err := collectPerf(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for idx, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", idx, err)
		}
	}
	if perf[0][0] != 1.5 || perf[0][1] != -1.25 {
		t.Errorf("perf = %v, want [[1.5 -1.25]]", perf)
	}

	stats := h.Stats()
	if stats.RegistrationsJSON != 1 || stats.RegistrationsBinary != 1 {
		t.Errorf("codec registrations = %d json / %d binary, want 1/1",
			stats.RegistrationsJSON, stats.RegistrationsBinary)
	}
	if stats.BytesIn == 0 || stats.BytesOut == 0 {
		t.Errorf("hub wire bytes = %d in / %d out, want nonzero", stats.BytesIn, stats.BytesOut)
	}
	if stats.FramesIn[string(MsgPerfReport)] != 2 || stats.FramesOut[string(MsgCoordination)] != 2 {
		t.Errorf("hub frames = %v in / %v out, want 2 perf_report in and 2 coordination out",
			stats.FramesIn, stats.FramesOut)
	}
	for _, tc := range []struct {
		c    *AgentClient
		want string
	}{{cJSON, "json"}, {cBin, "binary"}} {
		as := tc.c.Stats()
		if as.Codec != tc.want {
			t.Errorf("agent codec = %q, want %q", as.Codec, tc.want)
		}
		if as.BytesIn == 0 || as.BytesOut == 0 {
			t.Errorf("%s agent wire bytes = %d in / %d out, want nonzero", tc.want, as.BytesIn, as.BytesOut)
		}
		if as.FramesOut[string(MsgPerfReport)] != 1 || as.FramesIn[string(MsgCoordination)] != 1 {
			t.Errorf("%s agent frames = %v in / %v out", tc.want, as.FramesIn, as.FramesOut)
		}
	}
}

// TestDuplicateAndWrongShardReports pins the report hygiene of the hub: a
// report naming an RA other than the one its connection registered as is
// dropped at the reader (never reaching that RA's collect slot), and a
// duplicate report for an already-collected period is discarded by the
// next collect.
func TestDuplicateAndWrongShardReports(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Shutdown() }()

	// RA 0 is a hand-driven connection so the test can forge frames.
	rogue, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	if err := writeMsg(rogue, Envelope{Type: MsgRegister, RA: 0}); err != nil {
		t.Fatal(err)
	}
	c1, err := DialAgent(h.Addr(), 1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := h.WaitRegistered(testTimeout); err != nil {
		t.Fatal(err)
	}

	// Period 0, in order on RA 0's conn: a report claiming RA 1 (foreign —
	// must not fill RA 1's slot), the real report, and a duplicate of the
	// real report.
	for _, e := range []Envelope{
		{Type: MsgPerfReport, RA: 1, Period: 0, Perf: []float64{-999}},
		{Type: MsgPerfReport, RA: 0, Period: 0, Perf: []float64{-10}},
		{Type: MsgPerfReport, RA: 0, Period: 0, Perf: []float64{-777}},
	} {
		if err := writeMsg(rogue, e); err != nil {
			t.Fatal(err)
		}
	}
	// RA 1's honest report goes out only after the hub read all three, so
	// a forged report that got past the reader would fill RA 1's slot
	// first.
	waitFor(t, "the forged frames to be read", func() bool { return h.Stats().ReportsReceived >= 3 })
	if err := c1.Report(0, []float64{-20}, nil, nil); err != nil {
		t.Fatal(err)
	}
	perf, err := collectPerf(h, 0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if perf[0][0] != -10 || perf[0][1] != -20 {
		t.Errorf("period 0 perf = %v, want [[-10 -20]] (forged frames must not land)", perf)
	}

	// Period 1 flushes the stranded duplicate (its stale period is dropped
	// during this collect) and proves the conn still serves honest reports.
	if err := writeMsg(rogue, Envelope{Type: MsgPerfReport, RA: 0, Period: 1, Perf: []float64{-11}}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Report(1, []float64{-21}, nil, nil); err != nil {
		t.Fatal(err)
	}
	perf, err = collectPerf(h, 1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if perf[0][0] != -11 || perf[0][1] != -21 {
		t.Errorf("period 1 perf = %v, want [[-11 -21]]", perf)
	}

	stats := h.Stats()
	if stats.ForeignRA != 1 {
		t.Errorf("ForeignRA = %d, want 1", stats.ForeignRA)
	}
	if stats.ReportsDropped != 2 { // foreign RA + stale duplicate
		t.Errorf("ReportsDropped = %d, want 2", stats.ReportsDropped)
	}
}
