package core

import (
	"strconv"

	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// jobCounters routes the fault-tolerance counters through the metrics
// registry. The registry is the source of truth — JobStats is derived from
// it at the end of the run. Because a registry may be shared across runs
// (iterative jobs, benchmark sweeps), each job records the counter values at
// start and reports the difference.
type jobCounters struct {
	mapRetries      *obs.Counter
	reduceRetries   *obs.Counter
	nodesLost       *obs.Counter
	mapRecoveries   *obs.Counter
	speculativeWins *obs.Counter
	base            JobStats

	conserv Conserv
}

// Conserv is the record/byte conservation ledger of all three runtimes:
// this simulator, internal/native and internal/dist count into the same
// registry counters through it, and NewConserv is the one copy of the names
// (DESIGN.md's ledger table is read off it). Every stage boundary counts what
// it consumed and produced, so a metrics snapshot can prove the pipeline
// neither lost nor duplicated data. All sites count winning attempts only,
// except the explicit drop/loss counters, which account for data that
// legitimately vanished (dead stores, dedup of re-executed tasks). A runtime
// without a boundary leaves its counter at zero.
type Conserv struct {
	MapRecordsIn    *obs.Counter // input records consumed by resolved map tasks
	MapPairsOut     *obs.Counter // pairs emitted by resolved map tasks
	PartRecords     *obs.Counter // pairs serialized into partition runs
	PartRuns        *obs.Counter // runs produced by the partitioning stage
	PartRawBytes    *obs.Counter // payload bytes of the pairs entering runs
	PartFrameBytes  *obs.Counter // payload bytes the runs' frames hold (Run.RawBytes)
	PartStoredBytes *obs.Counter // encoded bytes leaving runs (post-compression)

	StoreAccepted    *obs.Counter // records accepted into intermediate stores
	StoreDupDropped  *obs.Counter // records dropped as re-delivery duplicates
	StoreDeadDropped *obs.Counter // records dropped en route to / at a dead node
	StoreLost        *obs.Counter // accepted records lost with a dead store

	SpillRecords     *obs.Counter // records of runs filed to disk
	SpillRawBytes    *obs.Counter // payload bytes of the frames of runs filed to disk
	SpillStoredBytes *obs.Counter // on-disk bytes of filed runs (post-compression)
	SpillFiles       *obs.Counter // run files written

	MergeRecordsIn  *obs.Counter // records entering intermediate merges
	MergeRecordsOut *obs.Counter // records leaving intermediate merges

	ReduceRecordsIn *obs.Counter // records read by winning reduce attempts
	ReduceGroupsIn  *obs.Counter // key groups read by winning reduce attempts
	OutputPairs     *obs.Counter // pairs persisted by winning reduce attempts
}

// NewConserv returns the ledger counting into reg.
func NewConserv(reg *obs.Registry) Conserv {
	return Conserv{
		MapRecordsIn:     reg.Counter("conserv_map_records_in_total"),
		MapPairsOut:      reg.Counter("conserv_map_pairs_out_total"),
		PartRecords:      reg.Counter("conserv_partition_records_total"),
		PartRuns:         reg.Counter("conserv_partition_runs_total"),
		PartRawBytes:     reg.Counter("conserv_partition_raw_bytes_total"),
		PartFrameBytes:   reg.Counter("conserv_partition_frame_bytes_total"),
		PartStoredBytes:  reg.Counter("conserv_partition_stored_bytes_total"),
		StoreAccepted:    reg.Counter("conserv_store_accepted_records_total"),
		StoreDupDropped:  reg.Counter("conserv_store_dup_dropped_records_total"),
		StoreDeadDropped: reg.Counter("conserv_store_dead_dropped_records_total"),
		StoreLost:        reg.Counter("conserv_store_lost_records_total"),
		SpillRecords:     reg.Counter("conserv_spill_records_total"),
		SpillRawBytes:    reg.Counter("conserv_spill_raw_bytes_total"),
		SpillStoredBytes: reg.Counter("conserv_spill_stored_bytes_total"),
		SpillFiles:       reg.Counter("conserv_spill_files_total"),
		MergeRecordsIn:   reg.Counter("conserv_merge_records_in_total"),
		MergeRecordsOut:  reg.Counter("conserv_merge_records_out_total"),
		ReduceRecordsIn:  reg.Counter("conserv_reduce_records_in_total"),
		ReduceGroupsIn:   reg.Counter("conserv_reduce_groups_in_total"),
		OutputPairs:      reg.Counter("conserv_output_pairs_total"),
	}
}

// Spilled books one run the intermediate store filed to disk.
func (c *Conserv) Spilled(run *kv.Run) {
	c.SpillRecords.Add(int64(run.Records))
	c.SpillRawBytes.Add(run.RawBytes)
	c.SpillStoredBytes.Add(run.StoredBytes())
	c.SpillFiles.Inc()
}

func newJobCounters(reg *obs.Registry) *jobCounters {
	c := &jobCounters{
		mapRetries:      reg.Counter("map_retries_total"),
		reduceRetries:   reg.Counter("reduce_retries_total"),
		nodesLost:       reg.Counter("nodes_lost_total"),
		mapRecoveries:   reg.Counter("map_recoveries_total"),
		speculativeWins: reg.Counter("speculative_wins_total"),
		conserv:         NewConserv(reg),
	}
	c.base = c.totals()
	return c
}

func (c *jobCounters) totals() JobStats {
	return JobStats{
		MapRetries:      int(c.mapRetries.Value()),
		ReduceRetries:   int(c.reduceRetries.Value()),
		NodesLost:       int(c.nodesLost.Value()),
		MapRecoveries:   int(c.mapRecoveries.Value()),
		SpeculativeWins: int(c.speculativeWins.Value()),
	}
}

// stats returns this run's activity: the registry totals minus the values
// captured when the job started.
func (c *jobCounters) stats() JobStats {
	t := c.totals()
	return JobStats{
		MapRetries:      t.MapRetries - c.base.MapRetries,
		ReduceRetries:   t.ReduceRetries - c.base.ReduceRetries,
		NodesLost:       t.NodesLost - c.base.NodesLost,
		MapRecoveries:   t.MapRecoveries - c.base.MapRecoveries,
		SpeculativeWins: t.SpeculativeWins - c.base.SpeculativeWins,
	}
}

// publishResult exposes the finished job's headline numbers and per-stage
// busy breakdown as gauges, so a metrics snapshot alone reconstructs the
// paper's Tables II/III figures without holding the Result.
func publishResult(reg *obs.Registry, res *Result) {
	reg.Gauge("job_time_seconds").Set(res.JobTime)
	reg.Gauge("map_elapsed_seconds").Set(res.MapElapsed)
	reg.Gauge("merge_delay_seconds").Set(res.MergeDelay)
	reg.Gauge("reduce_elapsed_seconds").Set(res.ReduceElapsed)
	reg.Gauge("intermediate_bytes").Set(float64(res.IntermediateBytes))
	reg.Gauge("output_pairs").Set(float64(res.OutputPairs))
	publishStages(reg, "map", res.MapStages)
	publishStages(reg, "reduce", res.ReduceStages)
}

func publishStages(reg *obs.Registry, phase string, all []StageTimes) {
	for node, st := range all {
		if st.Elapsed == 0 {
			continue // node never ran this phase (dead, or reduce skipped)
		}
		set := func(stage string, v float64) {
			reg.Gauge("stage_busy_seconds",
				obs.L("node", strconv.Itoa(node)),
				obs.L("phase", phase),
				obs.L("stage", stage)).Set(v)
		}
		set("input", st.Input)
		set("stage", st.Stage)
		set("kernel", st.Kernel)
		set("retrieve", st.Retrieve)
		set("partition", st.Partition)
		set("elapsed", st.Elapsed)
	}
}
