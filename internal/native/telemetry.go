package native

import (
	"runtime"
	"sync/atomic"
	"time"

	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// Pipeline stage names for the native runtime's spans and Result.Stages.
// They reuse the sim trace vocabulary so both runtimes export onto the same
// Chrome-trace tracks.
const (
	stageMapKernel    = "map/kernel"
	stageMapPartition = "map/partition"
	stageSpill        = "spill"
	stageReduce       = "reduce"
)

// recorder collects the native pipeline's wall-clock stage telemetry. The
// per-stage busy accumulators and the conservation ledger are always on (a
// handful of atomic adds per chunk) — the ledger counts straight into the
// caller's registry, or a private one when the run has no Telemetry; spans
// and memory-stat deltas are recorded only when the caller supplied a
// Telemetry bundle, so benchmark runs stay undistorted.
type recorder struct {
	epoch time.Time
	tel   *obs.Telemetry

	mapKernelNs    atomic.Int64
	mapPartitionNs atomic.Int64
	spillNs        atomic.Int64
	reduceNs       atomic.Int64

	core.Conserv
	// base is the ledger at job start: a registry may be shared across runs,
	// and Result reports this run's growth.
	base struct{ pairsOut, spillFiles, spillBytes int64 }

	chunks    *obs.Counter
	chunkHist *obs.Histogram
	memStart  runtime.MemStats
}

func newRecorder(tel *obs.Telemetry) *recorder {
	r := &recorder{epoch: time.Now(), tel: tel}
	var reg *obs.Registry
	if tel != nil {
		reg = tel.Metrics
		runtime.ReadMemStats(&r.memStart)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.Conserv = core.NewConserv(reg)
	r.chunks = reg.Counter("native_chunks_total")
	r.chunkHist = reg.Histogram("native_chunk_seconds", obs.DefTimeBuckets)
	r.base.pairsOut = r.MapPairsOut.Value()
	r.base.spillFiles = r.SpillFiles.Value()
	r.base.spillBytes = r.SpillStoredBytes.Value()
	return r
}

func (r *recorder) acc(stage string) *atomic.Int64 {
	switch stage {
	case stageMapKernel:
		return &r.mapKernelNs
	case stageMapPartition:
		return &r.mapPartitionNs
	case stageSpill:
		return &r.spillNs
	default:
		return &r.reduceNs
	}
}

// end books one unit of stage work begun at t0: the elapsed time goes to
// the stage accumulator and, when enabled, out as a span.
func (r *recorder) end(stage string, t0 time.Time) {
	d := time.Since(t0)
	r.acc(stage).Add(int64(d))
	if stage == stageMapKernel {
		r.chunks.Inc()
		r.chunkHist.Observe(d.Seconds())
	}
	if r.tel != nil && r.tel.Spans != nil {
		begin := t0.Sub(r.epoch).Seconds()
		r.tel.Spans.Span(obs.Span{Node: 0, Stage: stage, Start: begin, End: begin + d.Seconds()})
	}
}

// spilled is the run store's hook: one run was filed, its write begun at t0.
func (r *recorder) spilled(run *kv.Run, t0 time.Time) {
	r.end(stageSpill, t0)
	r.Spilled(run)
}

// stages snapshots the per-stage busy totals (stages that never ran are
// omitted).
func (r *recorder) stages() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, stage := range []string{stageMapKernel, stageMapPartition, stageSpill, stageReduce} {
		if v := r.acc(stage).Load(); v > 0 {
			out[stage] = time.Duration(v)
		}
	}
	return out
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
