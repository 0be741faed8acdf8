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
	PartRaw     int64 // payload bytes entering runs
	PartStored  int64 // encoded run bytes (post-compression)
}

// MapBlock parses one input block and runs the map kernel over it through
// the given collector, returning the collected output on pooled state. The
// caller must hand the chunk to Partition, or Release it, exactly once.
//
// The combiner needs per-key grouping, so it runs only with the hash-table
// collector and an App.Combine. Without it a batch kernel's columnar output
// is kept as is: both collectors emit the same pair multiset, and the
// columnar form partitions without ever materializing a []Pair.
func MapBlock(app *core.App, block []byte, collector core.CollectorKind, useCombiner bool) *Chunk {
	c := getChunk()
	recs := app.Parse(block)
	c.records = len(recs)
	combine := useCombiner && collector == core.HashTable && app.Combine != nil
	if app.MapBatch != nil && !combine {
		app.MapBatch(recs, &c.batch)
		c.columnar = true
		return c
	}
	// With a batch kernel, run it once over the whole block and replay its
	// output into the collector: the emit sequence is identical to the
	// per-record path by construction (batch kernels process records in
	// order), but the per-record shim's Batch setup is paid once per block.
	feed := func(emit func(k, v []byte)) {
		for _, rec := range recs {
			app.Map(rec, emit)
		}
	}
	if app.MapBatch != nil {
		app.MapBatch(recs, &c.batch)
		feed = func(emit func(k, v []byte)) {
			for i := 0; i < c.batch.Len(); i++ {
				p := c.batch.Pair(i)
				emit(p.Key, p.Value)
			}
		}
	}
	if collector != core.HashTable {
		feed(c.poolEmit)
		return c
	}
	feed(c.hashEmit)
	sink := c.poolEmit // bound once: a method value allocates per evaluation
	for i := range c.entries {
		e := &c.entries[i]
		if combine {
			app.Combine(e.key, e.vals, sink)
			continue
		}
		for _, v := range e.vals {
			c.out = append(c.out, kv.Pair{Key: e.key, Value: v})
		}
	}
	return c
}

// Partition splits the chunk's pairs n ways with part, sorts each partition
// and serializes it into a run (runs[g] is nil for an empty partition), then
// releases the chunk: the runs own their bytes.
func (c *Chunk) Partition(part func(key []byte, n int) int, n int, compress bool) ([]*kv.Run, MapStats) {
	defer c.Release()
	runs := make([]*kv.Run, n)
	st := MapStats{RecordsIn: int64(c.records)}
	if c.columnar {
		// Counting-scatter the 12-byte index entries by partition, sort each
		// range in place, and serialize it straight into a run — no payload
		// movement, no sortedness re-verification.
		b := &c.batch
		st.PairsOut = int64(b.Len())
		bounds := b.PartitionRanges(part, n)
		for g := range runs {
			if lo, hi := bounds[g], bounds[g+1]; lo < hi {
				b.SortRange(lo, hi)
				runs[g] = b.RunRange(lo, hi, compress)
			}
		}
	} else {
		st.PairsOut = int64(len(c.out))
		if cap(c.buckets) < n {
			c.buckets = make([][]kv.Pair, n)
		}
		buckets := c.buckets[:n]
		for g := range buckets {
			buckets[g] = buckets[g][:0]
		}
		for _, pr := range c.out {
			g := part(pr.Key, n)
			buckets[g] = append(buckets[g], pr)
		}
		for g, bucket := range buckets {
			if len(bucket) > 0 {
				kv.SortPairs(bucket)
				runs[g] = kv.NewRun(bucket, compress)
			}
		}
	}
	for _, r := range runs {
		if r != nil {
			st.PartRecords += int64(r.Records)
			st.PartRuns++
			st.PartRaw += r.RawBytes
			st.PartStored += r.StoredBytes()
		}
	}
	return runs, st
}

// ReducePartition merges one partition's sorted iterators and applies the
// reduce kernel, or passes the merged pairs through for reduce-less apps
// like TeraSort. It returns the output with the records and key groups the
// kernel consumed (groups is 0 on the reduce-less path, which never groups).
func ReducePartition(app *core.App, iters []kv.Iterator) (out []kv.Pair, records, groups int64) {
	merged := kv.Merge(iters...)
	if app.Reduce == nil && app.ReduceBatch == nil {
		out = kv.Drain(merged)
		return out, int64(len(out)), 0
	}
	// A batch kernel appends its output into one partition-owned slab; the
	// returned pairs are views into it, so there is no per-pair copy-out.
	var slab kv.Batch
	emit := func(k, v []byte) {
		out = append(out, kv.Pair{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
	}
	gi := kv.NewGroupIter(merged)
	for {
		grp, ok := gi.Next()
		if !ok {
			break
		}
		records += int64(len(grp.Values))
		groups++
		if app.ReduceBatch != nil {
			app.ReduceBatch(grp.Key, grp.Values, &slab)
		} else {
			app.Reduce(grp.Key, grp.Values, emit)
		}
	}
	if app.ReduceBatch != nil {
		out = slab.Pairs(nil)
	}
	return out, records, groups
}
