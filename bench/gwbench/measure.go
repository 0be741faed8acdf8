package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"glasswing/internal/native"
	"glasswing/internal/obs"
)

// harnessNode is the trace track the harness's own spans go on; the
// program's spans keep their node ids (coordinator −1, workers 0, 1, …).
const harnessNode = 99

// harness holds what outlives one repetition: the path to re-exec for
// worker children, the scratch root every temporary file lives under, the
// set of live children, and — on traced runs — the span buffer.
type harness struct {
	self     string
	scratch  string
	children procs

	epoch  time.Time
	spans  obs.SpanBuffer
	spanID atomic.Uint64
	root   uint64 // the current workload's span; parent of every other harness span
}

// span records one harness-side interval around a call into the program,
// as a child of the current workload's span.
func (h *harness) span(name string, from, to time.Time) {
	h.spans.Span(obs.Span{
		Node: harnessNode, Stage: name, ID: h.spanID.Add(1), Parent: h.root,
		Start: from.Sub(h.epoch).Seconds(), End: to.Sub(h.epoch).Seconds(),
	})
}

// adopt moves a program run's spans (timed from the run's own start) onto
// the harness timeline.
func (h *harness) adopt(spans []obs.Span, runStart time.Time) {
	off := runStart.Sub(h.epoch).Seconds()
	for _, s := range spans {
		s.Start += off
		s.End += off
		h.spans.Span(s)
	}
}

// budget says how long to measure. seconds > 0 is the timed mode;
// seconds == 0 is -check: exactly reps repetitions of everything, no clock.
type budget struct {
	seconds float64
	reps    int
}

// The measuring time is cut into rounds, and every round gives each runtime
// its share. The sandbox's speed wanders by ±13% within seconds and more
// over minutes; a metric sampled all through the run averages over that,
// where a metric measured in one 5 s phase of its own would read whatever
// the machine was doing in those 5 s.
const rounds = 8

// traceReps is how many untraced repetitions the traced run takes the
// median of.
const traceReps = 3

// turn calls rep until one runtime's share of one round is spent, and at
// least once.
func (b budget) turn(share float64, rep func() error) error {
	deadline := time.Now().Add(time.Duration(b.seconds / rounds * share * float64(time.Second)))
	for n := 0; ; n++ {
		if b.seconds == 0 && n >= b.reps {
			return nil
		}
		if b.seconds > 0 && n >= 1 && !time.Now().Before(deadline) {
			return nil
		}
		if err := rep(); err != nil {
			return err
		}
	}
}

// tally counts verified operations: native and dist repetitions and
// service jobs alike.
type tally struct {
	attempted, failed int
	firstErr          error
}

// add folds another tally into t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	return err == nil
}

// runNative times one native.Run from outside. Each repetition starts as a
// fresh process would: no garbage from the previous one and empty
// sync.Pools. That takes two GC cycles — one only demotes the pools to
// their victim cache, and whether a repetition then found its arenas there
// made wc-zipf bimodal (0.42 s or 0.55 s). Verification happens after the
// clock stops.
func (h *harness) runNative(in *input, tel *obs.Telemetry, t *tally) (time.Duration, *native.Result) {
	cfg := native.Config{
		Partitions: in.partitions, Collector: in.collector, UseCombiner: in.combiner,
		Partitioner: in.part, CacheThreshold: in.threshold, SpillDir: h.scratch, Telemetry: tel,
	}
	runtime.GC()
	runtime.GC()
	t0 := time.Now()
	res, err := native.Run(in.kernels, in.blocks, cfg)
	wall := time.Since(t0)
	t1 := time.Now()
	if err == nil {
		err = in.verify(res.Output())
	}
	if tel != nil {
		h.adopt(tel.Spans.Spans(), t0)
		h.span("bench/native.Run", t0, t1)
		h.span("bench/verify", t1, time.Now())
	}
	if !t.op(err) {
		return 0, nil
	}
	return wall, res
}

// runDistVerified is runDist plus output verification. A cluster that
// cannot be run at all (a worker crashed, the port was taken, Serve hung)
// is the harness's failure and aborts the run; an output that does not
// match the reference is a failed operation.
func (h *harness) runDistVerified(in *input, tel *obs.Telemetry, t *tally) (*distRep, error) {
	t0 := time.Now()
	rep, err := h.runDist(in, in.blocks, distWorkers, tel)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	verr := in.verify(rep.res.Output())
	if tel != nil {
		h.adopt(tel.Spans.Spans(), t0)
		h.span("bench/dist.spawn", t0, t0.Add(rep.spawn))
		h.span("bench/dist.Serve", t0, t0.Add(rep.wall))
		h.span("bench/verify", t1, time.Now())
	}
	if !t.op(verr) {
		return nil, nil
	}
	return rep, nil
}

// endToEnd measures what a user of each runtime sees on one workload, with
// telemetry off: job wall clock on native and on a 2-process cluster, and
// the service's closed-loop latency and throughput.
func (h *harness) endToEnd(in *input, svc *service, b budget) (*metrics, *tally, error) {
	// One discarded warm-up of each runtime: page cache, allocator arenas,
	// the HTTP connection pool. Failures here are reported, not hidden.
	warm := new(tally)
	h.runNative(in, nil, warm)
	if _, err := h.runDistVerified(in, nil, warm); err != nil {
		return nil, nil, err
	}
	for _, j := range h.runService(svc, in, 0, 1, false).jobs {
		warm.op(j.err)
	}
	if warm.firstErr != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", warm.firstErr)
	}

	t := new(tally)
	var nativeS, distS, totalMS []float64
	var svcJobs int
	var svcElapsed time.Duration
	svcShare := 1 - in.nativeShare - in.distShare
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		b.turn(in.nativeShare, func() error {
			if d, res := h.runNative(in, nil, t); res != nil {
				nativeS = append(nativeS, d.Seconds())
			}
			return nil
		})
		err := b.turn(in.distShare, func() error {
			rep, err := h.runDistVerified(in, nil, t)
			if rep != nil {
				distS = append(distS, rep.wall.Seconds())
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		loop := h.runService(svc, in, time.Duration(b.seconds/rounds*svcShare*float64(time.Second)), b.reps, false)
		svcJobs += len(loop.jobs)
		svcElapsed += loop.elapsed
		for _, j := range loop.jobs {
			if t.op(j.err) {
				totalMS = append(totalMS, ms(j.total))
			}
		}
	}
	if len(nativeS) == 0 || len(distS) == 0 || len(totalMS) == 0 {
		return nil, nil, fmt.Errorf("a runtime completed no verified operation: %w", t.firstErr)
	}

	m := newMetrics()
	m.set("native_job_s", median(nativeS), len(nativeS))
	m.set("dist_job_s", median(distS), len(distS))
	// A failed or rejected job misses every latency limit: it stays in the
	// sample at the time-out, so enough of them drag the percentiles up.
	lat := append([]float64(nil), totalMS...)
	for i := len(totalMS); i < svcJobs; i++ {
		lat = append(lat, ms(repTimeout))
	}
	m.set("svc_p50_ms", quantile(lat, 0.50), len(lat))
	m.set("svc_p95_ms", quantile(lat, 0.95), len(lat))
	m.set("svc_jobs_per_s", float64(len(totalMS))/svcElapsed.Seconds(), len(totalMS))
	return m, t, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianRep returns the element whose key is the median (upper middle for
// an even count), so that the parts reported for a run come from one real
// repetition and sum to its wall clock.
func medianRep[T any](reps []T, key func(T) time.Duration) T {
	sorted := append([]T(nil), reps...)
	sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
	return sorted[len(sorted)/2]
}

// layers is the traced run: per-layer metrics for one workload. Wall
// clocks still come from repetitions with telemetry off; one extra
// repetition of each runtime runs with telemetry on and supplies counters,
// spans and the tracing overhead.
func (h *harness) layers(in *input, svc *service, b budget) (*metrics, *tally, error) {
	m := newMetrics()
	t := new(tally)
	reps := traceReps
	if b.seconds == 0 {
		reps = b.reps
	}

	naive := timeNaive(in)
	m.set("baseline.naive_s", naive.Seconds(), 1)

	// ---- native ----
	type nativeRep struct {
		wall            time.Duration
		res             *native.Result
		allocMB, allocs float64
	}
	var nreps []nativeRep
	for i := 0; i < reps; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, res := h.runNative(in, nil, t)
		runtime.ReadMemStats(&after)
		if res != nil {
			nreps = append(nreps, nativeRep{d, res,
				float64(after.TotalAlloc-before.TotalAlloc) / 1e6, float64(after.Mallocs - before.Mallocs)})
		}
	}
	tracedNative, tracedRes := h.runNative(in, obs.NewTelemetry(), t)
	if len(nreps) == 0 || tracedRes == nil {
		return nil, nil, fmt.Errorf("native completed no verified run: %w", t.firstErr)
	}
	nr := medianRep(nreps, func(r nativeRep) time.Duration { return r.wall })
	nativeJob := nr.wall.Seconds()
	m.set("native.map_s", nr.res.MapElapsed.Seconds(), 1)
	m.set("native.merge_s", nr.res.MergeDelay.Seconds(), 1)
	m.set("native.reduce_s", nr.res.ReduceElapsed.Seconds(), 1)
	for stage, name := range map[string]string{
		"map/kernel": "native.kernel_busy_s", "map/partition": "native.partition_busy_s",
		"spill": "native.spill_busy_s", "merge": "native.merge_busy_s", "reduce": "native.reduce_busy_s",
	} {
		m.set(name, nr.res.Stages[stage].Seconds(), 1)
	}
	m.set("native.pairs", float64(nr.res.IntermediatePairs), 1)
	m.set("native.spill_files", float64(nr.res.SpillFiles), 1)
	m.set("native.spill_bytes", float64(nr.res.SpillBytes), 1)
	m.set("native.alloc_mb_per_job", nr.allocMB, 1)
	m.set("native.allocs_per_job", nr.allocs, 1)
	m.set("baseline.native_vs_naive_x", nativeJob/naive.Seconds(), len(nreps))
	parts := nr.res.MapElapsed + nr.res.MergeDelay + nr.res.ReduceElapsed
	m.check("native.map_s + merge_s + reduce_s within 2% of the native wall clock",
		relDiff(parts.Seconds(), nativeJob) <= 0.02, "%.4f s vs %.4f s", parts.Seconds(), nativeJob)

	// ---- kv and blockstore, on the workload's own records ----
	kvMicro(in, m)
	if err := blockstoreMicro(in, h.scratch, m); err != nil {
		return nil, nil, err
	}

	// ---- dist ----
	var dreps []*distRep
	for i := 0; i < reps; i++ {
		rep, err := h.runDistVerified(in, nil, t)
		if err != nil {
			return nil, nil, err
		}
		if rep != nil {
			dreps = append(dreps, rep)
		}
	}
	tel := obs.NewTelemetry()
	traced, err := h.runDistVerified(in, tel, t)
	if err != nil {
		return nil, nil, err
	}
	if len(dreps) == 0 || traced == nil {
		return nil, nil, fmt.Errorf("dist completed no verified run: %w", t.firstErr)
	}
	dr := medianRep(dreps, func(r *distRep) time.Duration { return r.wall })
	distJob := dr.wall.Seconds()
	m.set("dist.total_s", dr.res.Total.Seconds(), 1)
	m.set("dist.map_s", dr.res.MapElapsed.Seconds(), 1)
	m.set("dist.reduce_s", dr.res.ReduceElapsed.Seconds(), 1)
	m.set("dist.outside_s", (dr.wall - dr.res.Total).Seconds(), 1)
	m.set("baseline.dist_vs_native_x", distJob/nativeJob, len(dreps))
	peak := traced.peakRSSMB
	for _, r := range dreps {
		peak = max(peak, r.peakRSSMB)
	}
	m.set("dist.worker_peak_rss_mb", peak, len(dreps)+1)

	c := traced.counters
	m.set("dist.shuffle_bytes", c["dist_shuffle_bytes_total"], 1)
	m.set("dist.frames", c["dist_frame_bytes#count"], 1)
	m.set("dist.net_queue_s", c["dist_net_queue_ns_total"]/1e9, 1)
	m.set("dist.net_write_s", c["dist_net_write_ns_total"]/1e9, 1)
	m.set("dist.ingest_bytes", c["dist_block_ingest_bytes_total"], 1)
	m.set("dist.read_local_bytes", c["dist_read_local_bytes_total"], 1)
	m.set("dist.read_remote_bytes", c["dist_read_remote_bytes_total"], 1)
	m.set("dist.spill_bytes", c["conserv_spill_stored_bytes_total"], 1)
	m.set("dist.spill_files", c["conserv_spill_files_total"], 1)
	m.set("dist.map_retries", float64(traced.res.MapRetries), 1)
	m.set("dist.pairs", float64(traced.res.IntermediatePairs), 1)
	tracedTotal, spans := traced.res.Total.Seconds(), tel.Spans.Spans()
	inRange := true
	for stage, name := range map[string]string{
		"map/input": "dist.cover.map_input", "map/kernel": "dist.cover.map_kernel",
		"map/partition": "dist.cover.map_partition", "net/send": "dist.cover.net_send",
		"net/recv": "dist.cover.net_recv", "reduce": "dist.cover.reduce", "sched/assign": "dist.cover.sched_assign",
	} {
		f := cover(spans, stage, tracedTotal)
		inRange = inRange && f >= 0 && f <= 1
		m.set(name, f, 1)
	}
	m.check("every dist.cover.* is in [0, 1]", inRange, "of dist.total_s = %.4f s on the traced run", tracedTotal)

	const floorReps = 2 // enough for a floor and a scaling point; they are not gated
	nullS, err := h.distWalls(in, in.nullBlocks, distWorkers, floorReps)
	if err != nil {
		return nil, nil, err
	}
	m.set("dist.null_job_s", median(nullS), len(nullS))
	w1S, err := h.distWalls(in, in.blocks, 1, floorReps)
	if err != nil {
		return nil, nil, err
	}
	m.set("dist.w1_job_s", median(w1S), len(w1S))
	m.set("dist.scale_eff", median(w1S)/(distWorkers*distJob), len(w1S))

	m.set("obs.native_overhead_x", tracedNative.Seconds()/nativeJob, 1)
	m.set("obs.dist_overhead_x", traced.wall.Seconds()/distJob, 1)
	m.set("obs.overhead_x", (tracedNative+traced.wall).Seconds()/(nativeJob+distJob), 1)

	// ---- job service ----
	loop := h.runService(svc, in, time.Duration(b.seconds*0.15*float64(time.Second)), b.reps, true)
	var total, submit, result, wait, run, engine []float64
	rejected := 0
	for _, j := range loop.jobs {
		if j.rejected {
			rejected++
		}
		if !t.op(j.err) {
			continue
		}
		total = append(total, ms(j.total))
		submit = append(submit, ms(j.submit))
		result = append(result, ms(j.result))
		wait = append(wait, j.waitMS)
		run = append(run, j.runMS)
		engine = append(engine, j.engineMS)
	}
	if len(total) == 0 {
		return nil, nil, fmt.Errorf("the service completed no verified job: %w", t.firstErr)
	}
	n := len(total)
	m.set("jobsvc.submit_ms_p50", median(submit), n)
	m.set("jobsvc.result_ms_p50", median(result), n)
	m.set("jobsvc.wait_ms_p50", median(wait), n)
	m.set("jobsvc.run_ms_p50", median(run), n)
	m.set("jobsvc.engine_ms_p50", median(engine), n)
	m.set("jobsvc.p99_ms", quantile(total, 0.99), n)
	m.set("jobsvc.jobs", float64(n), n)
	m.set("jobsvc.rejected", float64(rejected), len(loop.jobs))
	p50 := median(total)
	slack := p50 - (median(submit) + median(wait) + median(run) + median(result))
	m.set("jobsvc.poll_slack_ms", slack, n)
	// The service reports wait and run in whole milliseconds and the client
	// polls every millisecond, so up to 3 ms can go unaccounted for however
	// short the job is.
	m.check("jobsvc submit + wait + run + result p50s account for the loop's p50 within 15% or 3 ms",
		math.Abs(slack) <= max(0.15*p50, 3), "p50 %.3f ms, poll slack %.3f ms", p50, slack)
	time.Sleep(250 * time.Millisecond) // one runtime-sampler period, so the gauge is from after the loop
	gauges, err := serviceGauges(svc.base)
	if err != nil {
		return nil, nil, err
	}
	m.set("jobsvc.goroutines_end", gauges["process_goroutines"], 1)
	return m, t, nil
}

// distWalls runs reps cluster jobs without verifying them and returns their
// wall clocks; used for the formation floor and the 1-worker point.
func (h *harness) distWalls(in *input, blocks [][]byte, workers, reps int) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		rep, err := h.runDist(in, blocks, workers, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, rep.wall.Seconds())
	}
	return out, nil
}

// cover is the fraction of [0, total] during which at least one span of
// the stage is open on any node: the union of the intervals (obs.Analyze's
// critical path over just those spans), never a sum of tenures.
func cover(spans []obs.Span, stage string, total float64) float64 {
	var clipped []obs.Span
	for _, s := range spans {
		if s.Stage != stage {
			continue
		}
		if s.Start, s.End = max(s.Start, 0), min(s.End, total); s.End > s.Start {
			clipped = append(clipped, s)
		}
	}
	return obs.Analyze(clipped).CriticalPath / total
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / b }

// writeTrace dumps the harness's and the program's spans as one Chrome
// trace.
func (h *harness) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, h.spans.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
