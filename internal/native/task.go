package native

import (
	"sync"

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
	PartRaw     int64 // payload bytes entering runs
	PartStored  int64 // encoded run bytes (post-compression)
}

// Book adds one winning map attempt's stats to the conservation ledger.
func (s MapStats) Book(led *core.Conserv) {
	led.MapRecordsIn.Add(s.RecordsIn)
	led.MapPairsOut.Add(s.PairsOut)
	led.PartRecords.Add(s.PartRecords)
	led.PartRuns.Add(s.PartRuns)
	led.PartRawBytes.Add(s.PartRaw)
	led.PartStoredBytes.Add(s.PartStored)
}

// MapBlock parses one input block and runs the map kernel over it,
// returning the collected output on pooled state. The caller must hand the
// chunk to Partition, or Release it, exactly once.
//
// The kernel's sink is the chunk's table. With the hash-table collector,
// the combiner and an App.Fold, the table folds each value into its key's
// accumulator. Otherwise it counts each key's repeats of its first value,
// so Partition hashes, scatters and sorts keys, not pairs; where pairs do
// not repeat, it hands them on as they come. Without a combiner the runs
// and MapStats are the same, byte for byte, whatever the collector and
// whatever the table did.
func MapBlock(app *core.App, block []byte, collector core.CollectorKind, useCombiner bool) *Chunk {
	c := getChunk()
	recs := app.Parse(block)
	c.records = len(recs)
	if useCombiner && collector == core.HashTable && app.Fold != nil {
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
// and each run spells their pairs out (kv.Batch.RunCounted).
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
		if c.counted {
			r = b.RunCounted(lo, hi, compress)
		} else {
			r = b.RunRange(lo, hi, compress)
		}
		runs[g] = r
		st.PartRecords += int64(r.Records)
		st.PartRuns++
		st.PartRaw += r.RawBytes
		st.PartStored += r.StoredBytes()
	}
	return runs, st
}

// valsPool recycles ReducePartition's values slice across partitions. On
// skewed keys one group holds a good share of a partition's pairs, and
// growing a slice of that many pointers afresh for every partition was most
// of what reduce allocated.
var valsPool = sync.Pool{New: func() any { return new([][]byte) }}

// ReducePartition merges one partition's sorted iterators and applies the
// reduce kernel, or passes the merged pairs through for reduce-less apps
// like TeraSort. It returns the output with the records and key groups the
// kernel consumed (groups is 0 on the reduce-less path, which never groups).
// Groups come off the merge whole (kv.Merger.NextGroup) into one values
// slice reused for every key: ReduceBatchFunc reads its values during the
// call and keeps none, and the pairs behind them stay valid (kv.Iterator).
func ReducePartition(app *core.App, iters []kv.Iterator) (out []kv.Pair, records, groups int64) {
	if app.ReduceBatch == nil {
		out = kv.Drain(kv.Merge(iters...))
		return out, int64(len(out)), 0
	}
	// The kernel appends its output into one partition-owned slab; the
	// returned pairs are views into it, so there is no per-pair copy-out.
	var slab kv.Batch
	vp := valsPool.Get().(*[][]byte)
	vals, most := *vp, 0
	defer func() {
		clear(vals[:most]) // the pool must not keep this partition's chunks alive
		*vp = vals[:0]
		valsPool.Put(vp)
	}()
	merged := kv.NewMerger(iters...)
	for {
		key, group, ok := merged.NextGroup(vals[:0])
		if vals = group; !ok {
			break
		}
		most = max(most, len(vals))
		records += int64(len(vals))
		groups++
		app.ReduceBatch(key, vals, &slab)
	}
	return slab.Pairs(nil), records, groups
}
