package native

import (
	"runtime"
	"time"

	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// recorder collects the native pipeline's wall-clock stage telemetry. The
// tracer's per-stage busy totals and the conservation ledger are always on
// (a handful of atomic adds per chunk) — the ledger counts straight into
// the caller's registry, or a private one when the run has no Telemetry;
// spans and memory-stat deltas are recorded only when the caller supplied a
// Telemetry bundle, so benchmark runs stay undistorted.
type recorder struct {
	tr  *obs.Tracer
	tel *obs.Telemetry

	core.Conserv
	// base is the ledger at job start: a registry may be shared across runs,
	// and Result reports this run's growth.
	base struct{ pairsOut, spillFiles, spillBytes int64 }

	chunks    *obs.Counter
	chunkHist *obs.Histogram
	memStart  runtime.MemStats
}

func newRecorder(tel *obs.Telemetry) *recorder {
	r := &recorder{tel: tel}
	var reg *obs.Registry
	var spans *obs.SpanBuffer
	if tel != nil {
		reg, spans = tel.Metrics, tel.Spans
		runtime.ReadMemStats(&r.memStart)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.tr = obs.NewTracer(0, spans)
	r.Conserv = core.NewConserv(reg)
	r.chunks = reg.Counter("native_chunks_total")
	r.chunkHist = reg.Histogram("native_chunk_seconds", obs.DefTimeBuckets)
	r.base.pairsOut = r.MapPairsOut.Value()
	r.base.spillFiles = r.SpillFiles.Value()
	r.base.spillBytes = r.SpillStoredBytes.Value()
	return r
}

// kernel books one chunk's map kernel, begun at t0, and returns its span id.
func (r *recorder) kernel(t0 time.Time) uint64 {
	id := r.tr.Record(obs.StageMapKernel, t0, 0)
	r.chunks.Inc()
	r.chunkHist.Observe(time.Since(t0).Seconds())
	return id
}

// spilled is the run store's hook: one run was filed, its write begun at t0.
func (r *recorder) spilled(run *kv.Run, t0 time.Time) {
	r.tr.Record(obs.StageSpill, t0, 0)
	r.Spilled(run)
}

// publish pushes the finished run's headline counters and gauges into the
// telemetry registry (the ledger is already there).
func (r *recorder) publish(res *Result) {
	if r.tel == nil || r.tel.Metrics == nil {
		return
	}
	reg := r.tel.Metrics
	reg.Counter("native_intermediate_pairs_total").Add(int64(res.IntermediatePairs))
	reg.Counter("native_spill_files_total").Add(int64(res.SpillFiles))
	reg.Counter("native_spill_bytes_total").Add(res.SpillBytes)
	reg.Counter("native_output_pairs_total").Add(int64(res.OutputPairs))

	reg.Gauge("native_map_seconds").Set(res.MapElapsed.Seconds())
	reg.Gauge("native_reduce_seconds").Set(res.ReduceElapsed.Seconds())
	reg.Gauge("native_total_seconds").Set(res.Total.Seconds())

	// Allocation pressure across the run (ReadMemStats is stop-the-world,
	// so it only happens on instrumented runs).
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	reg.Gauge("native_mallocs_delta").Set(float64(m.Mallocs - r.memStart.Mallocs))
	reg.Gauge("native_heap_bytes_delta").Set(float64(m.TotalAlloc - r.memStart.TotalAlloc))
}
