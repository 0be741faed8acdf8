package apps

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"

	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// TeraSort returns the TS application: sorting 100-byte records by their
// 10-byte keys with total order across output partitions (§IV-A1). TS has
// no reduce function — output is fully processed by the end of the
// intermediate-data shuffle; the framework's per-partition merge produces
// the sorted runs.
func TeraSort() *core.App {
	return &core.App{
		Name:             "TS",
		Parse:            parseFixed(workload.TeraRecordSize),
		ParseCostPerByte: 0.4,
		MapBatch: func(recs []kv.Pair, out kv.Sink) {
			for _, rec := range recs {
				out.AppendKV(rec.Value[:10], rec.Value[10:])
			}
		},
		// The map kernel only slices the record and looks up the sampled
		// range partition.
		MapCost: core.CostModel{OpsPerRecord: 25, OpsPerByte: 0.5, OpsPerEmit: 40},
	}
}

// TeraPartitioner builds a total-order range partitioner from a sample of
// the input, the paper's "input data set is sampled in an attempt to
// estimate the spread of keys" (§IV-A1). The returned function adapts to
// any partition count by quantile: keys are ranked against the sorted
// sample and mapped proportionally.
func TeraPartitioner(data []byte, sampleEvery int) func(key []byte, n int) int {
	return RangePartitioner(TeraSample(data, sampleEvery))
}

// TeraSample extracts every sampleEvery-th record's key from TeraGen data,
// sorted — the serializable core of the range partitioner, small enough to
// travel to remote workers that never see the full input.
func TeraSample(data []byte, sampleEvery int) [][]byte {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	var sample [][]byte
	for off := 0; off+workload.TeraRecordSize <= len(data); off += workload.TeraRecordSize * sampleEvery {
		sample = append(sample, data[off:off+10])
	}
	sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
	return sample
}

// RangePartitioner builds a total-order partitioner over a sorted key
// sample: keys are ranked against the sample and mapped to partitions
// proportionally by quantile, adapting to any partition count. A key of
// rank r (the number of sample keys <= it) goes to min(n-1, r·n/(S+1)) for
// a sample of S keys. That quantile crosses p exactly when r reaches
// ⌈p(S+1)/n⌉, so the partition is the number of the n-1 splitters
// sample[⌈p(S+1)/n⌉-1] (0 < p < n, indices below S) that are <= the key:
// each record searches those few splitters, never the whole sample. The
// splitters for the last n asked for are kept and shared by every
// goroutine that calls the partitioner; a call with another n replaces
// them.
func RangePartitioner(sample [][]byte) func(key []byte, n int) int {
	var cached atomic.Pointer[splitters]
	return func(key []byte, n int) int {
		sp := cached.Load()
		if sp == nil || sp.n != n {
			sp = newSplitters(sample, n)
			cached.Store(sp)
		}
		// The first splitter greater than key; its index counts the
		// splitters <= key.
		kp := kv.Prefix8(key)
		lo, hi := 0, len(sp.keys)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if sp.pre[m] < kp || sp.pre[m] == kp && bytes.Compare(sp.keys[m], key) <= 0 {
				lo = m + 1
			} else {
				hi = m
			}
		}
		return lo
	}
}

// splitters are a range partitioner's boundaries for one partition count.
type splitters struct {
	n    int
	keys [][]byte
	pre  []uint64
}

func newSplitters(sample [][]byte, n int) *splitters {
	sp := &splitters{n: n}
	s := len(sample)
	for p := 1; p < n; p++ {
		i := (p*(s+1)+n-1)/n - 1
		if i >= s {
			break
		}
		sp.keys = append(sp.keys, sample[i])
		sp.pre = append(sp.pre, kv.Prefix8(sample[i]))
	}
	return sp
}

// TSData builds n TeraGen records.
func TSData(seed int64, n int) []byte { return workload.TeraGen(seed, n) }

// VerifyTeraSort checks that out contains exactly the input records in
// globally sorted key order.
func VerifyTeraSort(out []kv.Pair, input []byte) error {
	n := len(input) / workload.TeraRecordSize
	if len(out) != n {
		return countMismatch("records", uint64(len(out)), uint64(n))
	}
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].Key, out[i].Key) > 0 {
			return fmt.Errorf("apps: order violation at record %d: key %x follows %x", i, out[i].Key, out[i-1].Key)
		}
	}
	// Multiset equality via sorted reference.
	ref := make([][]byte, n)
	for i := 0; i < n; i++ {
		ref[i] = input[i*workload.TeraRecordSize : i*workload.TeraRecordSize+10]
	}
	sort.Slice(ref, func(i, j int) bool { return bytes.Compare(ref[i], ref[j]) < 0 })
	for i, pr := range out {
		if !bytes.Equal(pr.Key, ref[i]) {
			return fmt.Errorf("apps: key mismatch at record %d: got %x, want %x", i, pr.Key, ref[i])
		}
		if len(pr.Value) != workload.TeraRecordSize-10 {
			return countMismatch("value size", uint64(len(pr.Value)), uint64(workload.TeraRecordSize-10))
		}
	}
	return nil
}
