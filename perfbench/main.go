// Command perfbench is the repository's benchmark. It deploys the paper's
// store hierarchy through the public webobj API, drives one of three named
// workloads open-loop from two generator goroutines, checks every output
// with its own oracle, and prints the metrics as one JSON object on the
// last line of standard output.
//
//	perfbench --workload conference-read --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
// runs an untraced half and a traced half of the same length and prints the
// per-layer metrics, the tracing overhead (traced minus untraced), and
// writes the spans to the work directory. See README.md for the workloads,
// the metrics and which layer each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/replication"
)

const (
	// A --trace 0 run measures this many fresh deployments one after
	// another, each for a share of the timed and capacity phases, and
	// reports the median over them: one deployment's speed can differ from
	// the next one's by 20 %, even within one process.
	deployments = 4
	// It sets up at least setupRounds times in all and, for short set-ups,
	// until minSetupTime has passed, so that setup_s, the median, rests on
	// enough rounds to be steady.
	setupRounds    = 5
	minSetupTime   = 2 * time.Second
	maxSetupRounds = 100
	warmup         = 2 * time.Second  // untimed traffic at the fixed rate before each timed phase
	capacityTime   = 8 * time.Second  // closed-loop phase for max_rate_ops and cpu_us_per_op
	quiesce        = 10 * time.Second // bound on replicas catching up after the timed phase
)

// units of every metric the benchmark can print.
var units = map[string]string{
	"read_p90_us": "us", "write_p90_us": "us",
	"setup_s": "s", "read_p50_us": "us", "read_p99_us": "us", "write_p50_us": "us", "write_p99_us": "us",
	"max_rate_ops": "ops/s", "cpu_us_per_op": "us", "wire_bytes_per_op": "B", "heap_live_mb": "MiB",
	"stale_read_share": "ratio", "failed_share": "ratio", "restart_s": "s",

	"gen.late_p50_us": "us", "gen.late_p99_us": "us", "gen.backlog_max": "count",
	"core.send_us_p50": "us", "core.return_us_p50": "us", "core.resent_requests": "count",
	"naming.resolve_calls": "count", "naming.resolve_us_p50": "us",
	"msg.encode_ns_per_frame": "ns", "msg.decode_ns_per_frame": "ns", "msg.allocs_per_frame": "count",
	"msg.bytes_per_frame_p50": "B",
	"transport.frames_per_op": "count", "transport.frames_per_op.request": "count",
	"transport.frames_per_op.dissemination": "count", "transport.frames_per_op.repair": "count",
	"transport.deliver_us_p50": "us", "transport.deliver_us_p99": "us",
	"store.read_service_us_p50": "us", "store.read_service_us_p99": "us",
	"store.write_service_us_p50": "us", "store.write_service_us_p99": "us",
	"replication.forward_us_p50": "us", "replication.disseminate_us_p50": "us",
	"replication.disseminate_us_p99": "us", "replication.disseminate_us_p50.depth1": "us",
	"replication.disseminate_us_p50.depth2": "us", "replication.updates_per_write": "count",
	"replication.ups_per_batch": "count", "replication.parked_read_share": "ratio",
	"replication.demands_per_kop": "count",
	"coherence.vector_width_p50":  "count", "coherence.buffered_share": "ratio", "coherence.submit_ns": "ns",
	"semantics.apply_ns": "ns", "semantics.reply_bytes_p50": "B",
	"wal.appends_per_write": "count", "wal.group_commit_share": "ratio", "wal.snapshots": "count",
	"wal.disk_bytes_per_user_byte": "ratio", "wal.replayed_records": "count", "wal.recovery_ms": "ms",
	"wal.append_sync_us_p50": "us",
	"runtime.allocs_per_op":  "count", "runtime.alloc_bytes_per_op": "B", "runtime.gc_cycles_per_kop": "count",
	"runtime.gc_pause_p99_us": "us", "runtime.goroutines_peak": "count",
	"trace.overhead.read_p50_us": "us", "trace.overhead.write_p50_us": "us",
	"trace.overhead.cpu_us_per_op": "us", "runtime.cpu_us_per_op_at_rate": "us",
}

// endToEnd lists the metrics a --trace 0 run puts in its result line. The
// others in its report are 0 on some workload (stale_read_share,
// failed_share, restart_s) or swing too much from run to run on a shared
// 2-vCPU host to carry a regression bound (the p90 and p99 latencies and
// max_rate_ops); a --trace 1 run reports them with the per-layer metrics.
var endToEnd = []string{
	"setup_s", "read_p50_us", "write_p50_us", "cpu_us_per_op", "wire_bytes_per_op", "heap_live_mb",
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload name: conference-read, forum-write or durable-ingest")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced run that reports the per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for data and span files")
	flag.Parse()
	sp, ok := lookupSpec(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload conference-read|forum-write|durable-ingest, --seconds >= 1, --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &runner{sp: sp, seed: *seed, dur: time.Duration(*seconds) * time.Second, workdir: *workdir, out: map[string]float64{}}
	var err error
	if *trace == 1 {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return r.report(*trace == 1)
}

// runner holds one invocation's settings and results.
type runner struct {
	sp      spec
	seed    int64
	dur     time.Duration
	workdir string

	out       map[string]float64
	attempted int // ops and checker reads the oracle judged
	failed    int // oracle violations, failed ops included
	first     []string
	notes     []string
}

func (r *runner) env(tr *tracer) *env { return &env{seed: r.seed, tr: tr, workdir: r.workdir} }

// deploy builds the workload's deployment at least minRounds times and
// until minTime has passed (at most maxSetupRounds times), keeping the last,
// and returns the set-up time of each round.
func (r *runner) deploy(e *env, minRounds int, minTime time.Duration) (*deployment, []float64, error) {
	var times []float64
	var d *deployment
	begin := time.Now()
	for i := 0; i < minRounds || (i < maxSetupRounds && time.Since(begin) < minTime); i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		d, err = r.sp.build(e)
		if err != nil {
			d.close()
			return nil, nil, fmt.Errorf("set up %s: %w", r.sp.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	for g, w := range d.workers {
		w.rng = newRand(r.seed, g)
	}
	return d, times, nil
}

// warm drives the deployment at the fixed rate for the warm-up time,
// untimed. The first seconds of traffic on a fresh deployment run slower
// than the rest.
func (r *runner) warm(d *deployment) {
	r.attempted += d.run(r.sp.rate, warmup).attempted
}

// endToEnd is the --trace 0 run. Each deployment gets a warm-up, a
// share of the timed phase, a share of the capacity phase and the checks
// that follow; every metric is the median of its per-deployment values,
// and setup_s the median of every set-up round.
func (r *runner) endToEnd() error {
	var setups []float64
	per := map[string][]float64{}
	for i := 0; i < deployments; i++ {
		rounds, minTime := 1, time.Duration(0)
		if i == 0 {
			rounds, minTime = max(setupRounds-(deployments-1), 1), minSetupTime
		}
		d, times, err := r.deploy(r.env(nil), rounds, minTime)
		if err != nil {
			return err
		}
		setups = append(setups, times...)
		r.warm(d)
		m := d.measure(r.sp.rate, r.dur/deployments)
		r.attempted += m.ph.attempted
		r.latencies(m)
		r.capacity(d, capacityTime/deployments)
		r.finish(d)
		d.close()
		for n, v := range r.out {
			per[n] = append(per[n], v)
		}
		clear(r.out)
	}
	for n, vs := range per {
		r.out[n] = median(vs)
	}
	r.out["setup_s"] = median(setups)
	return nil
}

// capacity runs the closed-loop capacity phase for max_rate_ops and
// cpu_us_per_op.
func (r *runner) capacity(d *deployment, dur time.Duration) {
	rate, cpu, probes, attempted := d.capacity(dur, r.sp.limit)
	r.attempted += attempted
	r.out["max_rate_ops"] = rate
	r.out["cpu_us_per_op"] = cpu
	if probes > 0 {
		r.notes = append(r.notes, fmt.Sprintf("max_rate_ops: closed-loop p99 broke the %v limit; %d open-loop probes", r.sp.limit, probes))
	}
}

// traced is the --trace 1 run: an untraced half for the runtime and
// generator rows, the overhead baseline and max_rate_ops, then a traced
// half.
func (r *runner) traced() error {
	half := max(r.dur/2, time.Second)
	d, _, err := r.deploy(r.env(nil), 1, 0)
	if err != nil {
		return err
	}
	r.warm(d)
	base := d.measure(r.sp.rate, half)
	r.attempted += base.ph.attempted
	r.capacity(d, capacityTime)
	r.finish(d)
	d.close()
	r.runtimeRow(base)

	tr := newTracer()
	d, _, err = r.deploy(r.env(tr), 1, 0)
	if err != nil {
		return err
	}
	defer d.close()
	tr.setDepths(d.stores)
	r.warm(d)
	before := d.storeStats()
	tr.on.Store(true)
	m := d.measure(r.sp.rate, half)
	tr.on.Store(false)
	after := d.storeStats()
	r.attempted += m.ph.attempted
	// The end-to-end names report the untraced half; the traced half only
	// gives the overhead.
	r.latencies(base)
	r.out["trace.overhead.read_p50_us"] = us(m.ph.quantile(m.ph.reads, 0.5)) - r.out["read_p50_us"]
	r.out["trace.overhead.write_p50_us"] = us(m.ph.quantile(m.ph.writes, 0.5)) - r.out["write_p50_us"]
	r.out["trace.overhead.cpu_us_per_op"] = m.cpuPerOp - base.cpuPerOp
	r.layerRows(tr, d, m, diffStats(before, after))
	r.finish(d)
	if err := tr.dump(filepath.Join(r.workdir, fmt.Sprintf("spans-%s-%d.jsonl", r.sp.name, r.seed))); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// latencies fills the end-to-end metrics of a timed phase.
func (r *runner) latencies(m measurement) {
	ops := float64(m.ph.completed())
	r.out["read_p50_us"] = us(m.ph.quantile(m.ph.reads, 0.5))
	r.out["read_p99_us"] = us(m.ph.quantile(m.ph.reads, 0.99))
	r.out["write_p50_us"] = us(m.ph.quantile(m.ph.writes, 0.5))
	r.out["write_p99_us"] = us(m.ph.quantile(m.ph.writes, 0.99))
	r.out["read_p90_us"] = us(m.ph.quantile(m.ph.reads, 0.90))
	r.out["write_p90_us"] = us(m.ph.quantile(m.ph.writes, 0.90))
	r.out["runtime.cpu_us_per_op_at_rate"] = m.cpuPerOp
	r.out["wire_bytes_per_op"] = ratio(float64(m.wire), ops)
	r.out["heap_live_mb"] = m.heapLive
	r.out["stale_read_share"] = ratio(float64(m.stale), float64(m.reads))
	r.out["failed_share"] = ratio(float64(m.ph.failed), float64(m.ph.attempted))
	r.notes = append(r.notes, fmt.Sprintf("timed phase: %d reads, %d writes completed in %.1fs at %.0f ops/s offered",
		len(m.ph.reads), len(m.ph.writes), m.ph.elapsed.Seconds(), r.sp.rate))
}

// runtimeRow fills the generator and runtime rows from an untraced phase.
func (r *runner) runtimeRow(m measurement) {
	ops := float64(m.ph.completed())
	r.out["gen.late_p50_us"] = us(quantile(m.ph.late, 0.5))
	r.out["gen.late_p99_us"] = us(quantile(m.ph.late, 0.99))
	r.out["gen.backlog_max"] = float64(m.ph.backlogMax)
	r.out["runtime.allocs_per_op"] = ratio(float64(m.rt.allocs), ops)
	r.out["runtime.alloc_bytes_per_op"] = ratio(float64(m.rt.allocBytes), ops)
	r.out["runtime.gc_cycles_per_kop"] = ratio(1000*float64(m.rt.gcs), ops)
	r.out["runtime.gc_pause_p99_us"] = m.rt.pauseP99us
	r.out["runtime.goroutines_peak"] = float64(m.rt.goroutinesPeak)
}

// layerRows derives the per-layer metrics of the traced phase.
func (r *runner) layerRows(tr *tracer, d *deployment, m measurement, st replication.Stats) {
	ops := float64(m.ph.completed())
	writes := float64(len(m.ph.writes))
	p := func(name string, q float64) float64 { return us(quantile(tr.spanDurations(name), q)) }
	r.out["core.send_us_p50"] = p("core.send", 0.5)
	r.out["core.return_us_p50"] = p("core.return", 0.5)
	r.out["transport.deliver_us_p50"] = p("transport.deliver", 0.5)
	r.out["transport.deliver_us_p99"] = p("transport.deliver", 0.99)
	r.out["store.read_service_us_p50"] = p("store.read", 0.5)
	r.out["store.read_service_us_p99"] = p("store.read", 0.99)
	r.out["store.write_service_us_p50"] = p("store.write", 0.5)
	r.out["store.write_service_us_p99"] = p("store.write", 0.99)
	r.out["replication.forward_us_p50"] = p("replication.forward", 0.5)
	r.out["replication.disseminate_us_p50"] = p("replication.disseminate.", 0.5)
	r.out["replication.disseminate_us_p99"] = p("replication.disseminate.", 0.99)
	r.out["replication.disseminate_us_p50.depth1"] = p("replication.disseminate.d1", 0.5)
	r.out["replication.disseminate_us_p50.depth2"] = p("replication.disseminate.d2", 0.5)

	tr.mu.Lock()
	frames := tr.frames
	r.out["core.resent_requests"] = float64(tr.resent)
	r.out["msg.bytes_per_frame_p50"] = float64(quantile(tr.frameBytes, 0.5))
	r.out["coherence.vector_width_p50"] = float64(quantile(tr.vecWidths, 0.5))
	r.out["semantics.reply_bytes_p50"] = float64(quantile(tr.replyBytes, 0.5))
	r.out["naming.resolve_us_p50"] = us(quantile(tr.resolveNs, 0.5))
	capFrames, capInvs, capUpdates := tr.capFrames, tr.capInvs, tr.capUpdates
	tr.mu.Unlock()
	r.out["naming.resolve_calls"] = float64(tr.resolveCalls.Load())
	r.out["transport.frames_per_op"] = ratio(float64(frames[catRequest]+frames[catDissemination]+frames[catRepair]), ops)
	r.out["transport.frames_per_op.request"] = ratio(float64(frames[catRequest]), ops)
	r.out["transport.frames_per_op.dissemination"] = ratio(float64(frames[catDissemination]), ops)
	r.out["transport.frames_per_op.repair"] = ratio(float64(frames[catRepair]), ops)

	r.out["replication.updates_per_write"] = ratio(float64(st.UpdatesApplied), writes)
	r.out["replication.ups_per_batch"] = ratio(float64(st.BatchedUpdates), float64(st.BatchesSent))
	r.out["replication.parked_read_share"] = ratio(float64(st.ReadsParked), float64(len(m.ph.reads)))
	r.out["replication.demands_per_kop"] = ratio(1000*float64(st.DemandsSent), ops)
	r.out["coherence.buffered_share"] = ratio(float64(st.UpdatesBuffered), float64(st.UpdatesApplied))
	r.out["wal.appends_per_write"] = ratio(float64(st.WALAppends), writes)
	r.out["wal.group_commit_share"] = ratio(float64(st.GroupCommits), writes)
	r.out["wal.snapshots"] = float64(st.WALSnapshots)
	if d.dataDir != "" {
		user := 0
		for _, n := range d.orc.names {
			user += len(n) + d.orc.size
		}
		r.out["wal.disk_bytes_per_user_byte"] = ratio(float64(dirSize(d.dataDir)), float64(user))
	}

	enc, dec, allocs := replayMsg(capFrames)
	r.out["msg.encode_ns_per_frame"] = enc
	r.out["msg.decode_ns_per_frame"] = dec
	r.out["msg.allocs_per_frame"] = allocs
	r.out["semantics.apply_ns"] = replaySemantics(capInvs, r.sp.sem)
	r.out["coherence.submit_ns"] = replayEngine(capUpdates, r.sp.model)
	sync, err := replayWAL(capUpdates, r.workdir)
	if err != nil {
		r.notes = append(r.notes, "wal replay: "+err.Error())
	}
	r.out["wal.append_sync_us_p50"] = us(sync)
}

// finish runs the checks that follow the timed phase: every replica must
// converge to the last acknowledged versions, and a durable store must
// serve every acknowledged write after a reopen. It then adds the
// deployment's checked reads and violations to the run's totals.
func (r *runner) finish(d *deployment) {
	r.attempted += d.orc.converged(d.checkers, quiesce)
	if d.reopen != nil {
		d.shutdown()
		start := time.Now()
		c, sys, st, err := d.reopen()
		if err != nil {
			d.orc.violate(vLost, "reopen: "+err.Error())
		} else {
			body, err := c.get(d.orc.names[0])
			r.out["restart_s"] = time.Since(start).Seconds()
			d.orc.checkRead(c, 0, body, err, d.orc.acked(0))
			r.attempted += 1 + d.orc.survived(c)
			if s, err := st.Stats(object); err == nil {
				r.out["wal.replayed_records"] = float64(s.WALReplayed)
				r.out["wal.recovery_ms"] = float64(s.RecoveryNanos) / 1e6
			}
			c.close()
			_ = sys.Close()
		}
	}
	n, first := d.orc.violations()
	r.failed += n
	r.first = append(r.first, first...)
}

// report prints the human-readable report and the JSON result line, and
// returns the exit code.
func (r *runner) report(traced bool) int {
	names := make([]string, 0, len(r.out))
	for n := range r.out {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d\n", r.sp.name, r.seed)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, n := range names {
		fmt.Printf("  %-42s %14.4f %s\n", n, r.out[n], units[n])
	}
	for _, v := range r.first {
		fmt.Println("  VIOLATION " + v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	if traced {
		for n, u := range units {
			if !contains(endToEnd, n) {
				res.Metrics[n] = value{r.out[n], u}
			}
		}
	} else {
		for _, n := range endToEnd {
			res.Metrics[n] = value{r.out[n], units[n]}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}

// --- measurement -------------------------------------------------------------

// measurement is one timed phase plus the process and fabric counters
// around it.
type measurement struct {
	ph       phase
	cpuPerOp float64 // process CPU per completed op, median over the slices
	wire     uint64
	rt       runtimeDelta
	heapLive float64 // MiB after a forced GC at the end of the phase
	stale    int64
	reads    int64
}

// cpuMark is the process CPU time and the ops completed at one instant.
type cpuMark struct {
	cpu  time.Duration
	done int64
}

// measure runs one open-loop phase and samples the process around it: CPU
// time at every slice boundary, the goroutine count every 20 ms, and the
// runtime counters, wire bytes and live heap at the ends.
func (d *deployment) measure(rate float64, dur time.Duration) measurement {
	stale0, reads0 := d.orc.stale.Load(), d.orc.reads.Load()
	wire0 := d.wireBytes()
	rt0 := readRuntime()
	stop := make(chan struct{})
	type sampled struct {
		peak  int
		marks []cpuMark
	}
	res := make(chan sampled)
	go func() {
		s := sampled{peak: runtime.NumGoroutine(), marks: []cpuMark{{cpuTime(), d.done.Load()}}}
		next := time.Now().Add(dur / slices)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				res <- s
				return
			case now := <-t.C:
				s.peak = max(s.peak, runtime.NumGoroutine())
				if !now.Before(next) && len(s.marks) <= slices {
					s.marks = append(s.marks, cpuMark{cpuTime(), d.done.Load()})
					next = next.Add(dur / slices)
				}
			}
		}
	}()
	ph := d.run(rate, dur)
	close(stop)
	s := <-res
	m := measurement{ph: ph}
	var per []float64
	for i := 1; i < len(s.marks); i++ {
		a, b := s.marks[i-1], s.marks[i]
		if b.done > a.done {
			per = append(per, us(b.cpu-a.cpu)/float64(b.done-a.done))
		}
	}
	m.cpuPerOp = median(per)
	m.rt = readRuntime().since(rt0)
	m.rt.goroutinesPeak = s.peak
	m.wire = d.wireBytes() - wire0
	m.stale, m.reads = d.orc.stale.Load()-stale0, d.orc.reads.Load()-reads0
	runtime.GC()
	m.heapLive = heapLiveMiB()
	return m
}

func (d *deployment) wireBytes() uint64 {
	if d.fabric == nil {
		return 0
	}
	return d.fabric.StatsMap()[d.wireKey]
}

// storeStats snapshots the replication counters of every store.
func (d *deployment) storeStats() []replication.Stats {
	out := make([]replication.Stats, len(d.stores))
	for i, r := range d.stores {
		out[i], _ = r.st.Stats(object)
	}
	return out
}

// diffStats sums after-before over the stores for the counters the layer
// rows use.
func diffStats(before, after []replication.Stats) replication.Stats {
	var s replication.Stats
	for i := range after {
		a, b := after[i], before[i]
		s.ReadsParked += a.ReadsParked - b.ReadsParked
		s.UpdatesApplied += a.UpdatesApplied - b.UpdatesApplied
		s.UpdatesBuffered += a.UpdatesBuffered - b.UpdatesBuffered
		s.DemandsSent += a.DemandsSent - b.DemandsSent
		s.BatchesSent += a.BatchesSent - b.BatchesSent
		s.BatchedUpdates += a.BatchedUpdates - b.BatchedUpdates
		s.WALAppends += a.WALAppends - b.WALAppends
		s.GroupCommits += a.GroupCommits - b.GroupCommits
		s.WALSnapshots += a.WALSnapshots - b.WALSnapshots
	}
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct {
	allocs, allocBytes, gcs uint64
	pauses                  *metrics.Float64Histogram
}

type runtimeDelta struct {
	allocs, allocBytes, gcs uint64
	pauseP99us              float64
	goroutinesPeak          int
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
		out.allocBytes = s[1].Value.Uint64()
		out.gcs = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[3].Value.Float64Histogram()
	}
	return out
}

// since returns the counters accumulated after before, with the p99 of the
// GC pauses that happened in between (the upper edge of its bucket).
func (s runtimeSample) since(before runtimeSample) runtimeDelta {
	d := runtimeDelta{allocs: s.allocs - before.allocs, allocBytes: s.allocBytes - before.allocBytes, gcs: s.gcs - before.gcs}
	if s.pauses == nil || before.pauses == nil {
		return d
	}
	counts := make([]uint64, len(s.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = s.pauses.Counts[i] - before.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return d
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, c := range counts {
		acc += c
		if acc >= rank {
			edge := s.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = s.pauses.Buckets[i]
			}
			d.pauseP99us = edge * 1e6
			break
		}
	}
	return d
}

func heapLiveMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
