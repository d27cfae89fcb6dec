package rcnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// connState is the hub's per-connection bookkeeping. The write mutex
// serializes every hub-side frame written to the conn (broadcast, resume,
// shutdown notify), so frames from different hub goroutines can never
// interleave mid-line; lastSeen is refreshed on every frame read from the
// peer and drives the liveness reaper. The frame writer carries the codec
// the peer registered with (JSON until the register frame says otherwise).
type connState struct {
	conn     net.Conn
	wmu      sync.Mutex
	mw       *msgWriter
	lastSeen atomic.Int64 // monotonic-ish unix nanos of the last frame read
}

// send writes one frame under the connection's write mutex with a write
// deadline. The deadline is deliberately not cleared afterwards: every
// writer sets its own before writing.
func (st *connState) send(e Envelope, timeout time.Duration) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	//edgeslice:lockio wmu only serializes this conn's writers and the write is deadline-bounded; a stalled peer delays its own frames, nobody else's
	_ = st.conn.SetWriteDeadline(deadline(st.conn, timeout))
	return st.mw.write(e)
}

// setCodec switches the connection's reply codec once the register frame
// revealed what the peer speaks; taken under the write mutex so it cannot
// interleave with an in-flight frame.
func (st *connState) setCodec(c Codec) {
	st.wmu.Lock()
	st.mw.codec = c
	st.wmu.Unlock()
}

// Hub is the coordinator-side endpoint: it accepts agent registrations,
// broadcasts coordinating information, and collects per-period performance
// reports.
//
// The hub keeps one RA-indexed connection table under one mutex, one
// coordination log of full (Z, Y) grids for resume frames, one report
// channel that every connection reader feeds, and one small pool of
// broadcast-writer goroutines.
//
// Writes to agents are bounded: BroadcastTo and Shutdown apply a write
// deadline (SetWriteTimeout, default 5s) and never hold the hub lock
// across a network write, so one stalled agent cannot head-of-line block
// the round for healthy RAs or deadlock dropConn/Shutdown. A connection
// that misses its write deadline is dropped; the agent must re-register.
//
// Unregistered peers are bounded too: the register frame must arrive
// within registerTimeout and fit in maxRegisterBytes, so a peer that
// connects and stalls, or announces a huge first frame, is closed before
// it can pin memory.
//
// The hub survives agent churn: a re-registering RA supersedes its stale
// connection (the old conn is closed, the new one installed) and receives
// a MsgResume frame with its coordination columns for every period
// broadcast so far, letting a restarted agent replay the completed prefix
// and rejoin mid-run. With SetLiveness enabled the hub also reaps
// connections that go silent (no frames, no heartbeats) instead of
// waiting for the next broadcast write timeout.
type Hub struct {
	ln        net.Listener
	numSlices int
	numRAs    int

	writeTimeout time.Duration

	// mu guards every field below up to the report channel.
	mu           sync.Mutex
	live         map[net.Conn]*connState // every accepted conn, registered or not
	conns        []*connState            // registered conn per RA (nil: none)
	seenRAs      []bool                  // RAs that registered at least once
	lastReported []int                   // last period each RA reported (-1: none)
	zLog, yLog   [][][]float64           // [period][slice][ra] coordination grids
	completed    int                     // periods fully completed (FinishPeriod)
	shutdown     bool
	liveTimeout  time.Duration // 0: liveness reaping disabled

	// reports carries perf reports from the connection readers to
	// CollectReportsInto; bcast carries broadcast jobs to the writer pool.
	// Both have capacity numRAs — one in-flight frame per RA — so readers
	// never block a collect and enqueues never block a broadcast.
	reports chan Envelope
	bcast   chan bcastJob

	// bcastMu serializes broadcast enqueues against Shutdown closing the
	// writer pool: producers hold it shared while enqueueing, Shutdown
	// holds it exclusively while closing the queue, so a job is either
	// fully enqueued before the close (and drained by the pool) or
	// rejected with errHubClosed — never stranded.
	bcastMu     sync.RWMutex
	bcastClosed bool

	stats  hubStats
	wire   wireStats
	poolWG sync.WaitGroup

	registered chan int
	acceptWG   sync.WaitGroup
	readerWG   sync.WaitGroup
	reaperWG   sync.WaitGroup
	closed     chan struct{}
	closeOnce  sync.Once
}

// bcastJob is one RA's coordination send, executed by a pool writer. The
// worker builds the RA's column from the shared read-only grids, writes it
// deadline-bounded, stores any failure in the caller's slot, and signals
// the caller's WaitGroup.
type bcastJob struct {
	st     *connState
	ra     int
	period int
	z, y   [][]float64 // full [slice][ra] grids, read-only
	err    *error      // caller's per-RA error slot (exactly one writer)
	wg     *sync.WaitGroup
}

// broadcastWriters is the size of the broadcast-writer pool, capped by the
// RA count.
const broadcastWriters = 4

// defaultWriteTimeout bounds how long a BroadcastTo or Shutdown write may
// block on one agent's connection before the hub drops it.
const defaultWriteTimeout = 5 * time.Second

// registerTimeout bounds how long an accepted connection may take to
// deliver its register frame. Agents write it right after connecting, so
// it only ever fires for peers that connect and stall.
const registerTimeout = 3 * time.Second

var errHubClosed = errors.New("rcnet: hub closed")

// NewHub listens on addr (e.g. "127.0.0.1:0") for numRAs agents managing
// numSlices slices each.
func NewHub(addr string, numSlices, numRAs int) (*Hub, error) {
	if numSlices <= 0 || numRAs <= 0 {
		return nil, fmt.Errorf("rcnet: invalid hub dims slices=%d ras=%d", numSlices, numRAs)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rcnet: listen %s: %w", addr, err)
	}
	h := &Hub{
		ln:           ln,
		numSlices:    numSlices,
		numRAs:       numRAs,
		writeTimeout: defaultWriteTimeout,
		live:         make(map[net.Conn]*connState, numRAs),
		conns:        make([]*connState, numRAs),
		seenRAs:      make([]bool, numRAs),
		lastReported: make([]int, numRAs),
		reports:      make(chan Envelope, numRAs),
		bcast:        make(chan bcastJob, numRAs),
		registered:   make(chan int, numRAs),
		closed:       make(chan struct{}),
	}
	for ra := range h.lastReported {
		h.lastReported[ra] = -1
	}
	for w := 0; w < min(broadcastWriters, numRAs); w++ {
		h.poolWG.Add(1)
		go h.broadcastWorker()
	}
	h.acceptWG.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the listening address (useful with port 0).
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// NumSlices returns the per-RA slice count the hub was sized for.
func (h *Hub) NumSlices() int { return h.numSlices }

// NumRAs returns the number of agents the hub coordinates.
func (h *Hub) NumRAs() int { return h.numRAs }

// SetWriteTimeout overrides the per-connection write deadline used by
// BroadcastTo and Shutdown (0 or negative disables it). Call before the
// orchestration loop starts; it is not safe to change concurrently with
// BroadcastTo.
func (h *Hub) SetWriteTimeout(d time.Duration) { h.writeTimeout = d }

// SetLiveness enables proactive liveness reaping: a connection that
// delivers no frame (reports or heartbeats) for longer than timeout is
// closed, which drives the normal drop/re-register path immediately
// instead of waiting for the next broadcast to hit its write deadline.
// Only enable it when the agents send heartbeats (AgentClient
// StartHeartbeat) at a comfortably shorter interval — an agent that is
// silently computing a long period would otherwise be reaped mid-work.
// Call before agents connect; idempotent per hub.
func (h *Hub) SetLiveness(timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	h.mu.Lock()
	start := h.liveTimeout == 0 && !h.shutdown
	h.liveTimeout = timeout
	h.mu.Unlock()
	if start {
		h.reaperWG.Add(1)
		go h.reapLoop(timeout)
	}
}

// Liveness reports the hub's agent liveness: how many registered RAs
// delivered a frame within the liveness window (all of them when liveness
// reaping is disabled), how many are registered at all, and how many the
// hub expects.
func (h *Hub) Liveness() (liveRAs, registeredRAs, expected int) {
	now := time.Now().UnixNano()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, st := range h.conns {
		if st == nil {
			continue
		}
		registeredRAs++
		if h.liveTimeout <= 0 || now-st.lastSeen.Load() <= int64(h.liveTimeout) {
			liveRAs++
		}
	}
	return liveRAs, registeredRAs, h.numRAs
}

// reapLoop periodically closes connections whose peers went silent,
// registered or not. The scan interval divides the liveness timeout so a
// dead conn is reaped at most ~1.25 timeouts after its last frame.
func (h *Hub) reapLoop(timeout time.Duration) {
	defer h.reaperWG.Done()
	interval := timeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.closed:
			return
		case <-ticker.C:
			h.reapOnce(time.Now().UnixNano(), timeout)
		}
	}
}

// reapOnce collects the silent connections under the lock and closes them
// outside it; closing unblocks each conn's reader goroutine, which runs
// the usual dropConn path (or abandons the handshake).
func (h *Hub) reapOnce(now int64, timeout time.Duration) {
	h.mu.Lock()
	var victims []*connState
	for _, st := range h.live {
		if now-st.lastSeen.Load() > int64(timeout) {
			victims = append(victims, st)
		}
	}
	h.mu.Unlock()
	for _, st := range victims {
		h.stats.reaped.Add(1)
		_ = st.conn.Close()
	}
}

func (h *Hub) acceptLoop() {
	defer h.acceptWG.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.readerWG.Add(1)
		go h.handleConn(conn)
	}
}

// handleConn performs registration — detecting the peer's codec from its
// register frame and installing the conn in its RA's slot — then pumps
// the conn's reports into the hub's report channel.
func (h *Hub) handleConn(conn net.Conn) {
	defer h.readerWG.Done()
	st := &connState{conn: conn, mw: newMsgWriter(conn, CodecJSON, &h.wire)}
	st.lastSeen.Store(time.Now().UnixNano())
	// Track the connection before any blocking read so Shutdown can close
	// it and unblock this goroutine even if the peer stalls mid-register.
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	h.live[conn] = st
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.live, conn)
		h.mu.Unlock()
	}()
	mr := newMsgReader(conn, &h.wire)
	_ = conn.SetReadDeadline(time.Now().Add(registerTimeout))
	msg, err := mr.readMax(maxRegisterBytes)
	if err != nil || msg.Type != MsgRegister || msg.RA < 0 || msg.RA >= h.numRAs {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	ra := msg.RA
	st.lastSeen.Store(time.Now().UnixNano())
	// The register frame's codec decides how the hub answers this
	// connection; JSON peers that never heard of the binary codec keep
	// working unchanged.
	st.setCodec(mr.lastCodec)
	h.stats.regsByCodec[mr.lastCodec].Add(1)

	// Registration is a two-step handshake so the resume frame is on the
	// wire before the conn becomes broadcastable: (1) snapshot the catch-up
	// state, (2) write the resume frame outside the lock, (3) re-take the
	// lock, verify the snapshot is still current, and install the conn. If
	// a period completed between (1) and (3) the snapshot is stale — the
	// conn is closed and the agent redials into a clean handshake. Without
	// the ordering, the executor could broadcast the in-flight period to
	// the new conn before its resume frame, and the agent would step it
	// against an un-replayed environment.
	h.mu.Lock()
	resume := h.resumeFrameLocked(ra)
	h.mu.Unlock()
	if resume.Period > 0 {
		if err := st.send(resume, h.writeTimeout); err != nil {
			_ = conn.Close()
			return
		}
		h.stats.resumesSent.Add(1)
	}
	h.mu.Lock()
	if h.shutdown || h.resumePeriodLocked(ra) != resume.Period {
		h.mu.Unlock()
		_ = conn.Close() // shut down, or raced with a period completing: the agent must redial
		return
	}
	// Re-registration supersedes: the stale conn (a half-dead socket the
	// hub has not noticed yet) is replaced immediately instead of locking
	// the returning agent out until the next broadcast write timeout.
	old := h.conns[ra]
	h.conns[ra] = st
	reconnect := h.seenRAs[ra]
	h.seenRAs[ra] = true
	h.mu.Unlock()
	if old != nil {
		h.stats.superseded.Add(1)
		_ = old.conn.Close()
	}
	h.stats.registrations.Add(1)
	if reconnect {
		h.stats.reconnects.Add(1)
	}
	// Wake any WaitRegistered caller without ever blocking: when agents
	// reconnect after WaitRegistered has already returned, the buffered
	// channel fills with notifications nobody drains, and a blocking send
	// would park this goroutine before its read loop starts, leaving the
	// reconnected agent permanently unserved (and the goroutine leaked).
	// The channel is only a wakeup signal — WaitRegistered recounts the
	// conn table itself — so on a full channel the oldest entry is
	// dropped, and losing a notification merely delays the next recount.
	select {
	case h.registered <- ra:
	default:
		select {
		case <-h.registered:
		default:
		}
		select {
		case h.registered <- ra:
		default:
		}
	}
	for {
		m, err := mr.read()
		if err != nil {
			h.dropConn(ra, st)
			return
		}
		st.lastSeen.Store(time.Now().UnixNano())
		switch m.Type {
		case MsgPerfReport:
			h.stats.reportsReceived.Add(1)
			// A conn reports for the RA it registered as and no other; a
			// report naming another RA (a buggy or malicious peer) must
			// not fill that RA's collect slot.
			if m.RA != ra {
				h.stats.foreignRA.Add(1)
				h.stats.reportsDropped.Add(1)
				continue
			}
			h.mu.Lock()
			if m.Period > h.lastReported[ra] {
				h.lastReported[ra] = m.Period
			}
			h.mu.Unlock()
			select {
			case h.reports <- m:
			case <-h.closed:
				return
			}
		case MsgHeartbeat:
			h.stats.heartbeats.Add(1)
		default:
			// Ignore unexpected frames.
		}
	}
}

// dropConn removes st from the conn table if it is still the RA's current
// connection, then closes it.
func (h *Hub) dropConn(ra int, st *connState) {
	h.mu.Lock()
	dropped := h.conns[ra] == st
	if dropped {
		h.conns[ra] = nil
	}
	h.mu.Unlock()
	if dropped {
		h.stats.connsDropped.Add(1)
	}
	_ = st.conn.Close()
}

// resumePeriodLocked returns the first period RA ra must execute live: the
// completed prefix, extended through the RA's last collected report (a
// re-registering RA whose report for the in-flight period was already
// collected must replay that period too, since the executor will not
// re-broadcast it), never past the periods the log holds.
func (h *Hub) resumePeriodLocked(ra int) int {
	return min(max(h.completed, h.lastReported[ra]+1), len(h.zLog))
}

// resumeFrameLocked builds RA ra's catch-up frame from the coordination
// log: the first period it must execute live and its coordination columns
// for every earlier period.
func (h *Hub) resumeFrameLocked(ra int) Envelope {
	catchUp := h.resumePeriodLocked(ra)
	e := Envelope{Type: MsgResume, RA: ra, Period: catchUp}
	if catchUp > 0 {
		e.ZHist = make([][]float64, catchUp)
		e.YHist = make([][]float64, catchUp)
		for p := 0; p < catchUp; p++ {
			e.ZHist[p] = column(h.zLog[p], ra)
			e.YHist[p] = column(h.yLog[p], ra)
		}
	}
	return e
}

// column copies RA ra's column out of a [slice][ra] grid.
func column(g [][]float64, ra int) []float64 {
	col := make([]float64, len(g))
	for i, row := range g {
		col[i] = row[ra]
	}
	return col
}

// copyGrid snapshots a [slice][ra] grid.
func copyGrid(g [][]float64) [][]float64 {
	out := make([][]float64, len(g))
	for i, row := range g {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// WaitRegistered blocks until every RA is simultaneously registered or the
// timeout expires. The conn table is the ground truth; the channel (plus a
// coarse ticker, in case a wakeup was dropped) only paces the recounts.
func (h *Hub) WaitRegistered(timeout time.Duration) error {
	return h.waitRegistered(timeout, nil)
}

// WaitRegisteredRAs is WaitRegistered restricted to a subset of RAs — the
// remote executor uses it when some RAs run in-process and only the rest
// dial in.
func (h *Hub) WaitRegisteredRAs(timeout time.Duration, ras []int) error {
	for _, ra := range ras {
		if ra < 0 || ra >= h.numRAs {
			return fmt.Errorf("rcnet: wait for invalid RA %d", ra)
		}
	}
	return h.waitRegistered(timeout, ras)
}

func (h *Hub) waitRegistered(timeout time.Duration, ras []int) error {
	want := h.numRAs
	if ras != nil {
		want = len(ras)
	}
	count := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		n := 0
		if ras == nil {
			for _, st := range h.conns {
				if st != nil {
					n++
				}
			}
			return n
		}
		for _, ra := range ras {
			if h.conns[ra] != nil {
				n++
			}
		}
		return n
	}
	deadlineC := time.After(timeout)
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		if count() >= want {
			return nil
		}
		select {
		case <-h.registered:
		case <-ticker.C:
		case <-deadlineC:
			// Recount: registrations that landed during the final wait must
			// not be misreported as missing.
			if n := count(); n >= want {
				return nil
			} else {
				return fmt.Errorf("rcnet: %d/%d agents registered before timeout", n, want)
			}
		case <-h.closed:
			return errHubClosed
		}
	}
}

// FinishPeriod marks period p fully completed (collected, merged, and
// ADMM-updated): re-registering agents must replay through it. The remote
// execution engine calls it after every period.
func (h *Hub) FinishPeriod(p int) {
	h.mu.Lock()
	h.completed = max(h.completed, p+1)
	h.mu.Unlock()
}

// PrimeResume seeds the hub with the coordination history of a previous
// run segment — periods fully completed before a coordinator restart, with
// zs/ys the [period][slice][ra] grids that produced them — so agents
// registering into the resumed run receive the full replay. It must be
// called before any agent registers.
func (h *Hub) PrimeResume(periods int, zs, ys [][][]float64) error {
	if periods < 0 || len(zs) != periods || len(ys) != periods {
		return fmt.Errorf("rcnet: prime resume with %d periods but %d/%d grids", periods, len(zs), len(ys))
	}
	for p := 0; p < periods; p++ {
		if len(zs[p]) != h.numSlices || len(ys[p]) != h.numSlices {
			return fmt.Errorf("rcnet: prime resume period %d has %d/%d slices, want %d", p, len(zs[p]), len(ys[p]), h.numSlices)
		}
		for i := 0; i < h.numSlices; i++ {
			if len(zs[p][i]) != h.numRAs || len(ys[p][i]) != h.numRAs {
				return fmt.Errorf("rcnet: prime resume period %d slice %d has %d/%d RAs, want %d", p, i, len(zs[p][i]), len(ys[p][i]), h.numRAs)
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, seen := range h.seenRAs {
		if seen {
			return errors.New("rcnet: prime resume after an agent registered; prime immediately after NewHub")
		}
	}
	if h.completed != 0 || len(h.zLog) != 0 {
		return errors.New("rcnet: hub already holds coordination history")
	}
	h.completed = periods
	h.zLog = make([][][]float64, periods)
	h.yLog = make([][][]float64, periods)
	for p := 0; p < periods; p++ {
		h.zLog[p] = copyGrid(zs[p])
		h.yLog[p] = copyGrid(ys[p])
	}
	return nil
}

// BroadcastTo sends the period's coordination columns to the given RAs;
// z and y are [slice][ra] grids. The retry path re-broadcasts an in-flight
// period only to the RAs whose reports are still missing, so agents that
// already stepped it are never asked to step it twice.
//
// Connections are snapshotted under the hub lock and written by the
// writer pool outside it with a write deadline, so a stalled agent delays
// the round by at most the write timeout, never blocks healthy RAs'
// writes, and never wedges callers that need the hub lock (dropConn,
// Shutdown). An RA that is not currently registered, or whose write fails
// or times out (its conn is then dropped), contributes to the returned
// error (first in ras order, for determinism); the others still receive
// their columns. BroadcastTo is intended to be called from a single
// coordinator loop, not concurrently.
func (h *Hub) BroadcastTo(period int, z, y [][]float64, ras []int) error {
	if len(z) != h.numSlices || len(y) != h.numSlices {
		return fmt.Errorf("rcnet: coordination grids have %d/%d slices, want %d", len(z), len(y), h.numSlices)
	}
	for _, ra := range ras {
		if ra < 0 || ra >= h.numRAs {
			return fmt.Errorf("rcnet: broadcast to invalid RA %d", ra)
		}
	}
	states := make([]*connState, len(ras))
	errs := make([]error, len(ras))
	h.mu.Lock()
	// Remember the grids for later resume frames. Retried broadcasts of an
	// already-recorded period are no-ops; a period's grids never change
	// between attempts.
	if period == len(h.zLog) {
		h.zLog = append(h.zLog, copyGrid(z))
		h.yLog = append(h.yLog, copyGrid(y))
	}
	for k, ra := range ras {
		if states[k] = h.conns[ra]; states[k] == nil {
			errs[k] = fmt.Errorf("rcnet: RA %d not connected", ra)
		}
	}
	h.mu.Unlock()

	var wg sync.WaitGroup
	h.bcastMu.RLock()
	for k, st := range states {
		if st == nil {
			continue
		}
		if h.bcastClosed {
			errs[k] = errHubClosed
			continue
		}
		wg.Add(1)
		//edgeslice:lockio the send cannot block: the queue has capacity for one job per RA and a broadcast enqueues at most one job per RA, while bcastMu (held shared) pins the queue open
		h.bcast <- bcastJob{
			st: st, ra: ras[k], period: period, z: z, y: y, err: &errs[k], wg: &wg,
		}
	}
	h.bcastMu.RUnlock()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// broadcastWorker drains the broadcast queue until Shutdown closes it;
// range yields every job enqueued before the close, so no caller is left
// waiting on an abandoned slot.
func (h *Hub) broadcastWorker() {
	defer h.poolWG.Done()
	for job := range h.bcast {
		h.runBroadcast(job)
	}
}

// runBroadcast sends one RA its coordination column. A failed or timed-out
// write drops the connection so the next round fails fast instead of
// stalling again.
func (h *Hub) runBroadcast(job bcastJob) {
	defer job.wg.Done()
	e := Envelope{Type: MsgCoordination, Period: job.period, Z: column(job.z, job.ra), Y: column(job.y, job.ra)}
	if err := job.st.send(e, h.writeTimeout); err != nil {
		h.dropConn(job.ra, job.st)
		*job.err = fmt.Errorf("rcnet: broadcast to RA %d: %w", job.ra, err)
	}
}

// CollectReportsInto waits for a perf report from every RA for the given
// period and stores the full report envelopes — including the
// per-interval records agents attach (see IntervalRecord) — in out,
// indexed by RA. out and got persist partial progress across collection
// attempts, so a retried period keeps the reports that already arrived and
// waits only for the missing RAs. It returns how many RAs have reported in
// total (across this and previous attempts); a nil error means all of
// them. Reports for other periods and duplicates are discarded and counted
// in the stats.
func (h *Hub) CollectReportsInto(period int, timeout time.Duration, out []Envelope, got []bool) (int, error) {
	if len(out) != h.numRAs || len(got) != h.numRAs {
		return 0, fmt.Errorf("rcnet: collect buffers sized %d/%d, want %d", len(out), len(got), h.numRAs)
	}
	n := 0
	for _, g := range got {
		if g {
			n++
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for n < h.numRAs {
		select {
		case m := <-h.reports:
			if m.Period != period || got[m.RA] {
				h.stats.reportsDropped.Add(1)
				continue
			}
			if len(m.Perf) != h.numSlices {
				return n, fmt.Errorf("rcnet: RA %d reported %d slices, want %d", m.RA, len(m.Perf), h.numSlices)
			}
			out[m.RA] = m
			got[m.RA] = true
			n++
		case <-timer.C:
			return n, fmt.Errorf("rcnet: %d/%d reports for period %d before timeout", n, h.numRAs, period)
		case <-h.closed:
			return n, errHubClosed
		}
	}
	return n, nil
}

// Shutdown notifies agents, closes all connections and the listener, and
// waits for internal goroutines to exit.
func (h *Hub) Shutdown() error {
	var err error
	h.closeOnce.Do(func() {
		// Stop the broadcast pool first: after bcastClosed is set no new
		// job can be enqueued, and closing the queue lets each worker
		// drain what was enqueued before exiting, so no BroadcastTo caller
		// is left waiting on a stranded job.
		h.bcastMu.Lock()
		h.bcastClosed = true
		close(h.bcast)
		h.bcastMu.Unlock()
		// Snapshot every live connection — including ones stalled before
		// or mid-registration — so closing them unblocks every reader
		// goroutine; otherwise readerWG.Wait below could hang on a peer
		// that connected but never completed its register frame. The
		// shutdown flag stops handleConn from tracking (and blocking on)
		// conns accepted after this snapshot.
		h.mu.Lock()
		h.shutdown = true
		states := make([]*connState, 0, len(h.live))
		for _, st := range h.live {
			states = append(states, st)
		}
		clear(h.conns)
		h.mu.Unlock()
		// Notify outside the lock with a write deadline: a stalled agent
		// must not be able to wedge shutdown.
		for _, st := range states {
			_ = st.send(Envelope{Type: MsgShutdown}, h.writeTimeout)
			_ = st.conn.Close()
		}
		close(h.closed)
		err = h.ln.Close()
		h.acceptWG.Wait()
		h.readerWG.Wait()
		h.reaperWG.Wait()
		h.poolWG.Wait()
	})
	return err
}
