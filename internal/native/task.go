package native

import (
	"glasswing/internal/core"
	"glasswing/internal/kv"
)

// This file is the per-task data plane: the code that turns one input block
// into P sorted runs and one partition's sorted iterators into output. Run's
// goroutines call it, and so do internal/dist's workers — a host owns
// scheduling, storage and protocol, never pairs.

// MapStats is the map-side conservation slice of one block: what the
// kernel consumed and emitted, and what partitioning serialized.
type MapStats struct {
	RecordsIn   int64 // parsed records consumed by the map kernel
	PairsOut    int64 // pairs the kernel (and combiner) emitted
	PartRecords int64 // pairs serialized into partition runs
	PartRuns    int64 // non-empty runs produced
	PartRaw     int64 // payload bytes of the pairs entering runs
	PartFrame   int64 // payload bytes the runs' frames hold (Run.RawBytes)
	PartStored  int64 // encoded run bytes (post-compression)
}

// Book adds one winning map attempt's stats to the conservation ledger.
func (s MapStats) Book(led *core.Conserv) {
	led.MapRecordsIn.Add(s.RecordsIn)
	led.MapPairsOut.Add(s.PairsOut)
	led.PartRecords.Add(s.PartRecords)
	led.PartRuns.Add(s.PartRuns)
	led.PartRawBytes.Add(s.PartRaw)
	led.PartFrameBytes.Add(s.PartFrame)
	led.PartStoredBytes.Add(s.PartStored)
}

// MapBlock parses one input block and runs the map kernel over it,
// returning the collected output on pooled state. The caller must hand the
// chunk to Partition, or Release it, exactly once.
//
// The kernel's sink is the chunk's table. With combine and an App.Fold, the
// table folds each value into its key's accumulator; a runtime sets combine
// only for a job CheckCombiner accepts. Otherwise it counts each key's
// repeats of its first value, so Partition hashes, scatters and sorts keys,
// not pairs, and each run holds a key once with its count; where pairs do
// not repeat, it hands them on as they come. Without combine the runs
// decode to the same pairs, and MapStats are the same but for the frame and
// stored bytes, whatever the table did.
func MapBlock(app *core.App, block []byte, combine bool) *Chunk {
	c := getChunk()
	recs := app.Parse(block)
	c.records = len(recs)
	if combine && app.Fold != nil {
		c.tab.fold = app.Fold
		app.MapBatch(recs, &c.tab)
	} else {
		app.MapBatch(recs, (*counter)(&c.tab))
		c.counted = !c.tab.spelled
	}
	if !c.tab.spelled {
		c.tab.flush()
	}
	return c
}

// Partition splits the chunk's pairs n ways with part, sorts each partition
// and serializes it into a run (runs[g] is nil for an empty partition), then
// releases the chunk: the runs own their bytes. It counting-scatters the
// 12-byte index entries by partition, sorts each range in place and
// serializes it straight into a run — no payload movement, no sortedness
// re-verification. A counted chunk scatters and sorts its distinct keys,
// and each run holds one frame per key, which stands for the key's count of
// pairs (kv.Batch.RunCounted).
func (c *Chunk) Partition(part func(key []byte, n int) int, n int, compress bool) ([]*kv.Run, MapStats) {
	defer c.Release()
	runs := make([]*kv.Run, n)
	b := &c.batch
	st := MapStats{RecordsIn: int64(c.records), PairsOut: int64(b.Len())}
	if c.counted {
		st.PairsOut = int64(c.tab.pairs)
	}
	bounds := b.PartitionRanges(part, n)
	for g := range runs {
		lo, hi := bounds[g], bounds[g+1]
		if lo == hi {
			continue
		}
		b.SortRange(lo, hi)
		var r *kv.Run
		var raw int64
		if c.counted {
			r, raw = b.RunCounted(lo, hi, compress)
		} else {
			r = b.RunRange(lo, hi, compress)
			raw = r.RawBytes
		}
		runs[g] = r
		st.PartRecords += int64(r.Records)
		st.PartRuns++
		st.PartRaw += raw
		st.PartFrame += r.RawBytes
		st.PartStored += r.StoredBytes()
	}
	return runs, st
}

// ReducePartition merges one partition's sorted iterators and applies the
// reduce kernel, or passes the merged pairs through for reduce-less apps
// like TeraSort. It returns the output with the records and key groups the
// kernel consumed (groups is 0 on the reduce-less path, which never groups).
// An app whose reduce is its fold (App.ReduceIsFold) reduces each key
// group as it leaves the merge (kv.Merger.FoldGroup): its values are
// folded into the output pair's value in place, and never collected.
// Other groups come off the merge whole (kv.Merger.NextGroup) in the
// merger's one values slice, reused for every key: ReduceBatchFunc reads
// its values during the call and keeps none, and the pairs behind them
// stay valid (kv.Iterator). The merger is the caller's, and is Reset here:
// a reducer that takes one partition after another passes the same one, so
// the values slice grows to the largest group once, not once per partition.
func ReducePartition(app *core.App, merged *kv.Merger, iters []kv.Iterator) (out []kv.Pair, records, groups int64) {
	if app.ReduceBatch == nil {
		out = kv.Drain(iters...)
		return out, int64(len(out)), 0
	}
	// The kernel appends its output into one partition-owned slab; the
	// returned pairs are views into it, so there is no per-pair copy-out.
	var slab kv.Batch
	merged.Reset(iters...)
	if app.ReduceIsFold {
		for {
			n, ok := merged.FoldGroup(app.Fold, &slab)
			if !ok {
				break
			}
			records += int64(n)
			groups++
		}
		return slab.Pairs(nil), records, groups
	}
	for {
		key, vals, ok := merged.NextGroup()
		if !ok {
			break
		}
		records += int64(len(vals))
		groups++
		app.ReduceBatch(key, vals, &slab)
	}
	return slab.Pairs(nil), records, groups
}
