package conformance

import (
	"errors"
	"fmt"

	"glasswing/internal/obs"
)

// Ledger is one run's conservation account, read back by name from the
// conserv_* counters the runtimes count into their obs registry: the sim
// core, internal/native and internal/dist all book through core.Conserv (dist
// adds its wire and handoff counters in newLedger), so one reader serves all.
type Ledger struct {
	MapRecordsIn int64 // parsed records consumed by map kernels
	MapPairsOut  int64 // pairs leaving map kernels (post-combine if any)

	PartitionRecords     int64 // pairs serialized into partition runs
	PartitionRuns        int64 // runs produced
	PartitionRawBytes    int64 // payload volume of the pairs entering runs
	PartitionFrameBytes  int64 // payload volume the runs' frames hold: a counted frame's pair once
	PartitionStoredBytes int64 // encoded run volume (post-compression)

	StoreAccepted    int64 // records accepted by the intermediate store
	StoreDupDropped  int64 // duplicate task output rejected (sim re-execution)
	StoreDeadDropped int64 // output addressed to a dead store (sim node death)
	StoreLost        int64 // records lost with a dying store (sim node death)
	StoreSettled     int64 // lost records a final accepted reduce had already consumed (dist)

	SpillRecords     int64 // records written to spill files (native, dist)
	SpillRawBytes    int64 // spill payload volume before framing (native, dist)
	SpillStoredBytes int64 // on-disk spill volume after compression (native, dist)

	MergeIn  int64 // records entering compaction merges
	MergeOut int64 // records leaving compaction merges

	ReduceRecordsIn int64 // records read by winning reduce attempts
	ReduceGroupsIn  int64 // key groups consumed by reduce input stages
	OutputPairs     int64 // final pairs committed to output

	// Wire shuffle accounting (dist runtime only): every record and encoded
	// byte enqueued onto a network connection must either arrive at its
	// destination or be explicitly accounted lost with a dying worker —
	// sent == recv + lost, exactly, even across a kill.
	NetRecordsSent int64 // records enqueued onto shuffle connections
	NetBytesSent   int64 // encoded run bytes enqueued onto shuffle connections
	NetRecordsRecv int64 // records decoded at live destinations
	NetBytesRecv   int64 // encoded run bytes decoded at live destinations
	NetRecordsLost int64 // records dropped with dead connections/workers
	NetBytesLost   int64 // encoded run bytes dropped with dead connections/workers

	// Block-store read accounting (dist runtime with Options.Blockstore):
	// every input byte a map task consumes is read either off the mapper's
	// own replica or over the peer mesh / coordinator fallback — local +
	// remote must equal the job's input volume exactly.
	ReadLocalBytes  int64 // block bytes served from the mapper's own store
	ReadRemoteBytes int64 // block bytes fetched from peers or the coordinator
}

// ReadLedger extracts the conservation counters from a registry; names that
// were never written read as zero.
func ReadLedger(reg *obs.Registry) Ledger {
	return LedgerFromCounters(func(name string) int64 { return reg.Counter(name).Value() })
}

// LedgerFromCounters rebuilds a Ledger from a counter lookup — the remote
// twin of ReadLedger, used when a run's registry arrives serialized over an
// API (the job service's GET /jobs/{id}/metrics) instead of in-process.
// Names the lookup doesn't know must read as zero.
func LedgerFromCounters(c func(name string) int64) Ledger {
	return Ledger{
		MapRecordsIn:         c("conserv_map_records_in_total"),
		MapPairsOut:          c("conserv_map_pairs_out_total"),
		PartitionRecords:     c("conserv_partition_records_total"),
		PartitionRuns:        c("conserv_partition_runs_total"),
		PartitionRawBytes:    c("conserv_partition_raw_bytes_total"),
		PartitionFrameBytes:  c("conserv_partition_frame_bytes_total"),
		PartitionStoredBytes: c("conserv_partition_stored_bytes_total"),
		StoreAccepted:        c("conserv_store_accepted_records_total"),
		StoreDupDropped:      c("conserv_store_dup_dropped_records_total"),
		StoreDeadDropped:     c("conserv_store_dead_dropped_records_total"),
		StoreLost:            c("conserv_store_lost_records_total"),
		StoreSettled:         c("conserv_store_settled_records_total"),
		SpillRecords:         c("conserv_spill_records_total"),
		SpillRawBytes:        c("conserv_spill_raw_bytes_total"),
		SpillStoredBytes:     c("conserv_spill_stored_bytes_total"),
		MergeIn:              c("conserv_merge_records_in_total"),
		MergeOut:             c("conserv_merge_records_out_total"),
		ReduceRecordsIn:      c("conserv_reduce_records_in_total"),
		ReduceGroupsIn:       c("conserv_reduce_groups_in_total"),
		OutputPairs:          c("conserv_output_pairs_total"),
		NetRecordsSent:       c("conserv_net_records_sent_total"),
		NetBytesSent:         c("conserv_net_bytes_sent_total"),
		NetRecordsRecv:       c("conserv_net_records_recv_total"),
		NetBytesRecv:         c("conserv_net_bytes_recv_total"),
		NetRecordsLost:       c("conserv_net_records_lost_total"),
		NetBytesLost:         c("conserv_net_bytes_lost_total"),
		ReadLocalBytes:       c("dist_read_local_bytes_total"),
		ReadRemoteBytes:      c("dist_read_remote_bytes_total"),
	}
}

// CheckOpts qualifies which ledger invariants apply to a run.
type CheckOpts struct {
	// Sim distinguishes the simulated core (which has fault tolerance and
	// always groups reduce input) from the native pipeline.
	Sim bool
	// Faulty marks runs with injected task faults or node deaths: map-side
	// production counters legitimately over-count there (re-executed work
	// is counted again; the store dedups it), so only store-onward
	// invariants are exact.
	Faulty bool
	// Elastic marks runs whose coordinator crashed and resumed mid-job:
	// attempts in flight at the crash may be legitimately re-executed after
	// resume (map-side over-count, deduplicated at the store), but no
	// worker died — unlike Faulty, the wire must stay loss-free.
	Elastic bool
	// Combiner marks runs where map output is combined: pair counts and
	// bytes shrink below the reference's no-combiner volumes.
	Combiner bool
	// Compress marks runs with DEFLATE-compressed intermediate runs.
	Compress bool
	// HasReduce marks apps with a reduce function; the native runtime only
	// counts reduce groups on that path (reduce-less output is drained
	// without grouping).
	HasReduce bool
	// WantSpill asserts the run was forced to spill (native cache
	// threshold axis): zero spill activity would mean the axis tested
	// nothing.
	WantSpill bool
	// Dist marks runs of the distributed runtime, enabling the wire
	// conservation invariants (net sent == recv + lost) and asserting that
	// a multi-worker run actually moved shuffle data over connections.
	Dist bool
	// Blockstore ("local" or "remote") marks dist runs whose input was
	// ingested into worker block stores: the read ledger must conserve
	// (local + remote == InputBytes), locality-preferred scheduling must
	// serve at least half the input locally, and forced-remote must serve
	// none of it locally.
	Blockstore string
	// InputBytes is the job's total input volume, the right-hand side of
	// the block-read conservation equation (Blockstore runs only).
	InputBytes int64
}

// Check verifies the conservation invariants of one run against the
// reference expectation, returning every violated invariant joined into one
// error (nil when the ledger balances).
func (l Ledger) Check(exp Expected, o CheckOpts) error {
	var errs []error
	eq := func(what string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Errorf("%s: got %d, want %d", what, got, want))
		}
	}

	if !o.Faulty && !o.Elastic {
		// Fault-free, the map side is exact: every input record is mapped
		// exactly once and every emitted pair is serialized and accepted
		// exactly once.
		eq("map records in != input records", l.MapRecordsIn, exp.Records)
		eq("partition records != map pairs out", l.PartitionRecords, l.MapPairsOut)
		eq("store accepted != partition records", l.StoreAccepted, l.PartitionRecords)
		eq("dup-dropped records", l.StoreDupDropped, 0)
		eq("dead-dropped records", l.StoreDeadDropped, 0)
		eq("lost records", l.StoreLost, 0)
		eq("settled records", l.StoreSettled, 0)
		if !o.Combiner {
			eq("map pairs out != reference intermediate pairs", l.MapPairsOut, exp.InterPairs)
			eq("partition raw bytes != reference intermediate bytes", l.PartitionRawBytes, exp.InterBytes)
		}
	}

	// Store-onward invariants hold even under faults: re-executed map
	// output is deduplicated at the store, losing attempts never commit,
	// and a winning reduce attempt reads exactly what its partition's
	// store holds. Records a dying store takes down AFTER a final reduce
	// consumed them are booked both lost and settled, so they cancel out of
	// the recoverable-loss balance.
	eq("reduce records in != store accepted - lost + settled",
		l.ReduceRecordsIn, l.StoreAccepted-l.StoreLost+l.StoreSettled)
	eq("merge records out != in", l.MergeOut, l.MergeIn)
	if o.Sim || o.HasReduce {
		eq("reduce groups != reference distinct keys", l.ReduceGroupsIn, exp.DistinctKeys)
	}
	eq("output pairs != reference output pairs", l.OutputPairs, exp.OutputPairs)

	// Byte accounting: a run's frames hold no more payload than its pairs
	// (a counted frame holds its pair once), and uncompressed run encoding
	// adds only uvarint framing to the frames' payload (two length prefixes
	// of at most 5 bytes, and a counted frame's count of at most 5, per frame
	// of one or at least two pairs, plus at most 10 bytes of record count
	// per run); compression must at least produce non-empty blobs.
	if l.PartitionFrameBytes > l.PartitionRawBytes {
		errs = append(errs, fmt.Errorf("frame bytes %d exceed raw bytes %d", l.PartitionFrameBytes, l.PartitionRawBytes))
	}
	if !o.Compress {
		lo, hi := l.PartitionFrameBytes, l.PartitionFrameBytes+10*l.PartitionRecords+10*l.PartitionRuns
		if l.PartitionStoredBytes < lo || l.PartitionStoredBytes > hi {
			errs = append(errs, fmt.Errorf("stored bytes %d outside framing bounds [%d,%d]",
				l.PartitionStoredBytes, lo, hi))
		}
	} else if l.PartitionRecords > 0 && l.PartitionStoredBytes <= 0 {
		errs = append(errs, fmt.Errorf("compressed run bytes not accounted: %d", l.PartitionStoredBytes))
	}

	if o.Dist {
		// Wire conservation: the shuffle plane may not leak. Every record
		// and byte enqueued is either decoded at a live destination or
		// flushed as lost with a dead connection — balanced even across a
		// worker kill.
		eq("net records sent != recv + lost", l.NetRecordsSent, l.NetRecordsRecv+l.NetRecordsLost)
		eq("net bytes sent != recv + lost", l.NetBytesSent, l.NetBytesRecv+l.NetBytesLost)
		if !o.Faulty {
			eq("net lost records on a fault-free run", l.NetRecordsLost, 0)
			eq("net lost bytes on a fault-free run", l.NetBytesLost, 0)
		}
	} else {
		// Non-dist runtimes never touch the wire counters.
		eq("net records sent on a non-dist run", l.NetRecordsSent, 0)
	}

	if o.Blockstore != "" && !o.Faulty {
		eq("block reads local + remote != input bytes",
			l.ReadLocalBytes+l.ReadRemoteBytes, o.InputBytes)
		switch o.Blockstore {
		case "local":
			if 2*l.ReadLocalBytes < o.InputBytes {
				errs = append(errs, fmt.Errorf("locality-preferred run read only %d of %d input bytes locally",
					l.ReadLocalBytes, o.InputBytes))
			}
		case "remote":
			eq("local reads on a forced-remote run", l.ReadLocalBytes, 0)
		}
	}

	if o.WantSpill && l.SpillRecords == 0 {
		errs = append(errs, errors.New("spill axis ran without spilling"))
	}
	if l.SpillRecords > 0 {
		if !o.Compress {
			lo, hi := l.SpillRawBytes, l.SpillRawBytes+10*l.SpillRecords
			if l.SpillStoredBytes < lo || l.SpillStoredBytes > hi {
				errs = append(errs, fmt.Errorf("spill bytes %d outside framing bounds [%d,%d]",
					l.SpillStoredBytes, lo, hi))
			}
		} else if l.SpillStoredBytes <= 0 {
			errs = append(errs, fmt.Errorf("compressed spill bytes not accounted: %d", l.SpillStoredBytes))
		}
	}
	return errors.Join(errs...)
}
