package native

import (
	"runtime"
	"sync/atomic"
	"time"

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
// per-stage busy accumulators are plain atomics and always on (a handful of
// Add calls per chunk); spans, metrics and memory-stat deltas are recorded
// only when the caller supplied a Telemetry bundle, so benchmark runs stay
// undistorted.
type recorder struct {
	epoch time.Time
	tel   *obs.Telemetry

	mapKernelNs    atomic.Int64
	mapPartitionNs atomic.Int64
	spillNs        atomic.Int64
	reduceNs       atomic.Int64

	chunks     atomic.Int64
	spillFiles atomic.Int64
	spillBytes atomic.Int64

	// Conservation ledger (the same conserv_* vocabulary as the sim core's
	// jobCounters): each pipeline boundary counts the records and bytes it
	// consumed and produced, so internal/conformance can prove the native
	// pipeline's bookkeeping balances. Always on — plain atomic adds.
	mapRecordsIn    atomic.Int64 // parsed records consumed by map kernels
	mapPairsOut     atomic.Int64 // pairs emitted by map kernels
	partRecords     atomic.Int64 // pairs serialized into partition runs
	partRuns        atomic.Int64 // runs produced by partition workers
	partRawBytes    atomic.Int64 // payload bytes entering runs
	partStoredBytes atomic.Int64 // encoded run bytes (post-compression)
	storeAccepted   atomic.Int64 // records handed to the run store
	spillRecords    atomic.Int64 // records written to spill files
	spillRawBytes   atomic.Int64 // payload bytes written to spill files
	reduceRecordsIn atomic.Int64 // records fed into reduce-side merges
	reduceGroupsIn  atomic.Int64 // key groups consumed by reduce kernels
	outputPairs     atomic.Int64 // final pairs produced

	chunkHist *obs.Histogram
	memStart  runtime.MemStats
}

func newRecorder(tel *obs.Telemetry) *recorder {
	r := &recorder{epoch: time.Now(), tel: tel}
	if tel != nil {
		if tel.Metrics != nil {
			r.chunkHist = tel.Metrics.Histogram("native_chunk_seconds", obs.DefTimeBuckets)
		}
		runtime.ReadMemStats(&r.memStart)
	}
	return r
}

// mapStats books one partitioned chunk into the map-side ledger.
func (r *recorder) mapStats(s MapStats) {
	r.mapRecordsIn.Add(s.RecordsIn)
	r.mapPairsOut.Add(s.PairsOut)
	r.partRecords.Add(s.PartRecords)
	r.partRuns.Add(s.PartRuns)
	r.partRawBytes.Add(s.PartRaw)
	r.partStoredBytes.Add(s.PartStored)
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
		r.chunks.Add(1)
		if r.chunkHist != nil {
			r.chunkHist.Observe(d.Seconds())
		}
	}
	if r.tel != nil && r.tel.Spans != nil {
		begin := t0.Sub(r.epoch).Seconds()
		r.tel.Spans.Span(obs.Span{Node: 0, Stage: stage, Start: begin, End: begin + d.Seconds()})
	}
}

// spilled is the run store's hook: one run was filed, its write begun at t0.
func (r *recorder) spilled(run *kv.Run, t0 time.Time) {
	r.end(stageSpill, t0)
	r.spillFiles.Add(1)
	r.spillRecords.Add(int64(run.Records))
	r.spillRawBytes.Add(run.RawBytes)
	r.spillBytes.Add(run.StoredBytes())
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

// publish pushes the finished run's counters and gauges into the telemetry
// registry.
func (r *recorder) publish(res *Result) {
	if r.tel == nil || r.tel.Metrics == nil {
		return
	}
	reg := r.tel.Metrics
	reg.Counter("native_chunks_total").Add(r.chunks.Load())
	reg.Counter("native_intermediate_pairs_total").Add(int64(res.IntermediatePairs))
	reg.Counter("native_spill_files_total").Add(int64(res.SpillFiles))
	reg.Counter("native_spill_bytes_total").Add(res.SpillBytes)
	reg.Counter("native_output_pairs_total").Add(int64(res.OutputPairs))
	// Conservation ledger, under the shared conserv_* names so the same
	// reader handles both runtimes.
	reg.Counter("conserv_map_records_in_total").Add(r.mapRecordsIn.Load())
	reg.Counter("conserv_map_pairs_out_total").Add(r.mapPairsOut.Load())
	reg.Counter("conserv_partition_records_total").Add(r.partRecords.Load())
	reg.Counter("conserv_partition_runs_total").Add(r.partRuns.Load())
	reg.Counter("conserv_partition_raw_bytes_total").Add(r.partRawBytes.Load())
	reg.Counter("conserv_partition_stored_bytes_total").Add(r.partStoredBytes.Load())
	reg.Counter("conserv_store_accepted_records_total").Add(r.storeAccepted.Load())
	reg.Counter("conserv_spill_records_total").Add(r.spillRecords.Load())
	reg.Counter("conserv_spill_raw_bytes_total").Add(r.spillRawBytes.Load())
	reg.Counter("conserv_spill_stored_bytes_total").Add(r.spillBytes.Load())
	reg.Counter("conserv_spill_files_total").Add(int64(res.SpillFiles))
	reg.Counter("conserv_reduce_records_in_total").Add(r.reduceRecordsIn.Load())
	reg.Counter("conserv_reduce_groups_in_total").Add(r.reduceGroupsIn.Load())
	reg.Counter("conserv_output_pairs_total").Add(r.outputPairs.Load())

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
