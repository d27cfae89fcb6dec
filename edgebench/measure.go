package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"edgeslice/internal/core"
	"edgeslice/internal/telemetry"
)

// limit ends a measured phase after a number of ops, or after a duration
// when ops is 0.
type limit struct {
	ops int
	dur time.Duration
}

// reached reports whether a phase that started at start and has completed
// ops ops is over.
func (l limit) reached(ops int, start time.Time) bool {
	if l.ops > 0 {
		return ops >= l.ops
	}
	return time.Since(start) >= l.dur
}

// measuredLimit is the limit of a run's measured phase.
func (rc runConfig) measuredLimit() limit {
	if rc.MaxOps > 0 {
		return limit{ops: rc.MaxOps}
	}
	return limit{dur: rc.Duration}
}

// meter times the measured phase of an untraced run: the time per op of
// every step, heap allocations, and GC CPU over the whole phase.
type meter struct {
	samples []float64 // ms per op of each step
	ops     int
	failed  int
	elapsed time.Duration
	mallocs uint64
	gcShare float64
}

// run calls step until the limit is reached or a step fails. step returns
// the number of ops it completed; a failed step counts as one failed op
// and ends the phase, since the run it belongs to cannot go on.
func (m *meter) run(lim limit, step func() (int, error)) error {
	// Start from a clean heap, with freed memory returned to the OS so
	// that the peak RSS is the measured phase's own.
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	gc0, busy0 := cpuClasses()
	start := time.Now()
	var stepErr error
	for {
		t := time.Now()
		n, err := step()
		d := time.Since(t)
		if err != nil {
			m.failed++
			stepErr = err
			break
		}
		m.ops += n
		m.samples = append(m.samples, d.Seconds()*1e3/float64(n))
		if lim.reached(m.ops, start) {
			break
		}
	}
	m.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	m.mallocs = ms.Mallocs - mallocs0
	gc1, busy1 := cpuClasses()
	if busy1 > busy0 {
		m.gcShare = (gc1 - gc0) / (busy1 - busy0)
	}
	return stepErr
}

// perOpNs returns the phase's wall time per op in nanoseconds.
func (m *meter) perOpNs() float64 {
	if m.ops == 0 {
		return 0
	}
	return float64(m.elapsed.Nanoseconds()) / float64(m.ops)
}

// endToEndMetrics turns a measured phase into the end-to-end metrics.
// The rate is read at the 75th percentile of the time per op. A shared
// host switches between a fast state and its usual, slower one for
// seconds at a time, so a run's mean or median lands on whichever state
// held it longer; the 75th percentile stays in the slower state, which
// nearly every run contains.
func endToEndMetrics(setups []time.Duration, m *meter, extraFailed int) (map[string]metric, int, int) {
	failed := m.failed + extraFailed
	attempted := m.ops + m.failed
	if attempted < failed {
		attempted = failed
	}
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	out := map[string]metric{
		"setup_s":       {quantile(secs, 0.5), "s"},
		"ops_per_s_p75": {0, "1/s"},
		"allocs_per_op": {0, "count"},
		"max_rss_mb":    {maxRSSMB(), "MB"},
		"ok_op_ratio":   {float64(attempted-failed) / float64(attempted), "ratio"},
	}
	if m.ops > 0 {
		set(out, "ops_per_s_p75", 1e3/quantile(m.samples, 0.75))
		set(out, "allocs_per_op", float64(m.mallocs)/float64(m.ops))
	}
	return out, attempted, failed
}

// layerMetrics returns every per-layer metric at zero, for a workload to
// fill in the layers it calls.
func layerMetrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metric{0, d.Unit}
	}
	return out
}

// set assigns a metric's value, keeping the unit the catalog gives it.
func set(ms map[string]metric, name string, v float64) {
	m, ok := ms[name]
	if !ok {
		panic("edgebench: metric " + name + " is not in the catalog")
	}
	m.Value = v
	ms[name] = m
}

// setLayerTimes fills "<layer>.ns" (busy time per op) for the given layers
// and "<layer>.allocs" for those that count allocations.
func setLayerTimes(ms map[string]metric, tr *tracer, busy [numLayers]int64, ops int, layers ...layer) {
	for _, l := range layers {
		set(ms, layerNames[l]+".ns", float64(busy[l])/float64(ops))
		if name := layerNames[l] + ".allocs"; tr.allocOps[l] > 0 {
			set(ms, name, tr.allocsPerOp(l))
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// repeatSetup runs setup n times, timing each, and keeps the last instance;
// teardown releases the earlier ones.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T) error) (T, []time.Duration, error) {
	if n < 1 {
		n = 1
	}
	var cur T
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := teardown(cur); err != nil {
				return cur, nil, err
			}
			debug.FreeOSMemory()
		}
		t := time.Now()
		v, err := setup()
		if err != nil {
			return cur, nil, err
		}
		times = append(times, time.Since(t))
		cur = v
	}
	return cur, times, nil
}

// cpuClasses returns the runtime's estimate of GC CPU seconds and of CPU
// seconds spent running Go code or the runtime (total minus idle).
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// describeMachine records what a result was measured on.
func describeMachine() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel returns the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }() // read only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// digestLog is a history log written into a SHA-256 sink: the run's
// interval and period records, hashed instead of stored.
type digestLog struct {
	h   hash.Hash
	log *core.HistoryLog
}

func newDigestLog(numSlices, numRAs, t int) (*digestLog, error) {
	h := sha256.New()
	log, err := core.NewHistoryLog(telemetry.NewLogWriter(h), numSlices, numRAs, t)
	if err != nil {
		return nil, err
	}
	return &digestLog{h: h, log: log}, nil
}

// sum flushes the log and returns the digest of everything written so far.
func (d *digestLog) sum() (string, error) {
	if err := d.log.Sync(); err != nil {
		return "", fmt.Errorf("flush history log: %w", err)
	}
	return hex.EncodeToString(d.h.Sum(nil)), nil
}

// compareDigests returns a mismatch description, or "" when equal.
func compareDigests(what, got, want string) string {
	if got == want {
		return ""
	}
	return fmt.Sprintf("%s: digest %s, reference %s", what, got, want)
}
