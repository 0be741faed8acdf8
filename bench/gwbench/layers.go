package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"glasswing/internal/blockstore"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

var sink int // keeps the naive baselines' results alive

// timeNaive runs the workload's application with no framework at all, on
// one goroutine and the same bytes: SNIPPETS.md's strings.Fields +
// map[string]int loop for WordCount, slices.SortFunc over the records for
// TeraSort. Every engine number is read against it.
func timeNaive(in *input) time.Duration {
	t0 := time.Now()
	if in.app == "ts" {
		n := len(in.data) / workload.TeraRecordSize
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = in.data[i*workload.TeraRecordSize : (i+1)*workload.TeraRecordSize]
		}
		slices.SortFunc(recs, func(a, b []byte) int { return bytes.Compare(a[:10], b[:10]) })
		sink = len(recs)
	} else {
		counts := make(map[string]int)
		for _, w := range strings.Fields(string(in.data)) {
			counts[w]++
		}
		sink = len(counts)
	}
	return time.Since(t0)
}

// kvMicroPairs caps the batch the kv micro-timings run on.
const kvMicroPairs = 1 << 20

// mapBatch runs the workload's own map kernel over its blocks until the
// batch holds kvMicroPairs pairs (or the input runs out).
func mapBatch(in *input) *kv.Batch {
	b := new(kv.Batch)
	for _, blk := range in.blocks {
		if b.Len() >= kvMicroPairs {
			break
		}
		in.kernels.MapBatch(in.kernels.Parse(blk), b)
	}
	return b
}

// kvMicro times the four kv primitives both runtimes' data planes are
// built from, on pairs the workload's kernel really emits, with the
// workload's partitioner.
func kvMicro(in *input, m *metrics) {
	const parts = 8
	part := in.part
	if part == nil {
		part = kv.Partition
	}
	b := mapBatch(in)
	n := float64(b.Len())

	t0 := time.Now()
	bounds := b.PartitionRanges(part, parts)
	m.set("kv.partition_ns_per_pair", float64(time.Since(t0).Nanoseconds())/n, b.Len())

	t0 = time.Now()
	for p := 0; p < parts; p++ {
		b.SortRange(bounds[p], bounds[p+1])
	}
	m.set("kv.sort_ns_per_pair", float64(time.Since(t0).Nanoseconds())/n, b.Len())

	t0 = time.Now()
	var raw int64
	for p := 0; p < parts; p++ {
		raw += b.RunRange(bounds[p], bounds[p+1], false).RawBytes
	}
	m.set("kv.run_encode_mb_per_s", float64(raw)/1e6/time.Since(t0).Seconds(), b.Len())

	// Eight runs over the same key space — what a reducer merges: equal
	// slices of the batch in arrival order, each sorted on its own.
	b = mapBatch(in)
	runs := make([]*kv.Run, parts)
	for p := range runs {
		lo, hi := b.Len()*p/parts, b.Len()*(p+1)/parts
		b.SortRange(lo, hi)
		runs[p] = b.RunRange(lo, hi, false)
	}
	t0 = time.Now()
	merged := kv.MergeRuns(runs, false)
	m.set("kv.merge_ns_per_pair", float64(time.Since(t0).Nanoseconds())/float64(merged.Records), merged.Records)
}

// blockstoreMicro times the block store's write and read paths over the
// workload's own blocks.
func blockstoreMicro(in *input, scratch string, m *metrics) error {
	dir, err := os.MkdirTemp(scratch, "blocks-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := blockstore.Open(dir)
	if err != nil {
		return err
	}
	mb := float64(len(in.data)) / 1e6
	t0 := time.Now()
	for id, blk := range in.blocks {
		if err := st.Put(id, blk); err != nil {
			return err
		}
	}
	m.set("blockstore.put_mb_per_s", mb/time.Since(t0).Seconds(), len(in.blocks))
	t0 = time.Now()
	for id, blk := range in.blocks {
		got, err := st.ReadAll(id)
		if err != nil {
			return err
		}
		if len(got) != len(blk) {
			return fmt.Errorf("blockstore: block %d read back %d bytes, want %d", id, len(got), len(blk))
		}
	}
	m.set("blockstore.read_mb_per_s", mb/time.Since(t0).Seconds(), len(in.blocks))
	return nil
}
