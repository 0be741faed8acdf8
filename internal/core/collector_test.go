package core

import (
	"bytes"
	"fmt"
	"testing"

	"glasswing/internal/kv"
)

func sumU32(key []byte, values [][]byte, out *kv.Batch) {
	var total uint32
	for _, v := range values {
		total += uint32(v[0])
	}
	out.AppendKV(key, []byte{byte(total)})
}

func TestHashCollectorStoresKeysOnce(t *testing.T) {
	c := &hashCollector{}
	c.reset()
	for i := 0; i < 10; i++ {
		c.AppendKV([]byte("hot"), []byte{1})
	}
	c.AppendKV([]byte("cold"), []byte{1})
	if c.emits() != 11 {
		t.Fatalf("emits = %d", c.emits())
	}
	out, _, decode := c.finish()
	pairs := out.Pairs(nil)
	if len(pairs) != 11 {
		t.Fatalf("pairs = %d (each value kept)", len(pairs))
	}
	if decode != costDecodeHashPair {
		t.Fatalf("decode cost = %g", decode)
	}
	// Values of the same key are contiguous after the compaction kernel.
	firstCold := -1
	lastHot := -1
	for i, p := range pairs {
		if string(p.Key) == "cold" && firstCold < 0 {
			firstCold = i
		}
		if string(p.Key) == "hot" {
			lastHot = i
		}
	}
	if firstCold >= 0 && firstCold < lastHot {
		t.Fatal("values of the same key are not contiguous")
	}
}

func TestHashCollectorContentionGrowsWithRepetition(t *testing.T) {
	atomicsFor := func(repeats int) float64 {
		c := &hashCollector{}
		c.reset()
		for i := 0; i < repeats; i++ {
			c.AppendKV([]byte("k"), []byte{1})
		}
		return c.kernelStats().AtomicOps
	}
	lo := atomicsFor(4)
	hi := atomicsFor(64)
	// Paper §IV-B1: threads loop multiple times under repetition. Cost per
	// emit must grow, not just total.
	if hi/64 <= lo/4 {
		t.Fatalf("per-emit atomic cost should grow with repetition: %g vs %g", hi/64, lo/4)
	}
}

func TestHashCollectorCombinerAggregates(t *testing.T) {
	c := &hashCollector{combine: sumU32, combineCost: CostModel{OpsPerValue: 5}}
	c.reset()
	c.AppendKV([]byte("a"), []byte{1})
	c.AppendKV([]byte("a"), []byte{2})
	c.AppendKV([]byte("b"), []byte{7})
	out, extra, _ := c.finish()
	pairs := out.Pairs(nil)
	if len(pairs) != 2 {
		t.Fatalf("combined pairs = %d, want 2", len(pairs))
	}
	got := map[string]byte{}
	for _, p := range pairs {
		got[string(p.Key)] = p.Value[0]
	}
	if got["a"] != 3 || got["b"] != 7 {
		t.Fatalf("combined values wrong: %v", got)
	}
	if extra.Ops <= 0 {
		t.Fatal("combiner kernel work not charged")
	}
}

func TestPoolCollectorFlatCost(t *testing.T) {
	c := &poolCollector{}
	c.reset()
	for i := 0; i < 100; i++ {
		c.AppendKV([]byte("same"), []byte{1})
	}
	st := c.kernelStats()
	if st.AtomicOps != 100 {
		t.Fatalf("pool atomics = %g, want exactly one per emit", st.AtomicOps)
	}
	out, extra, decode := c.finish()
	if out.Len() != 100 || extra.Ops != 0 {
		t.Fatalf("pool finish: %d pairs, extra %g", out.Len(), extra.Ops)
	}
	if decode != costDecodeSimplePair || decode <= costDecodeHashPair {
		t.Fatalf("pool decode cost %g must exceed hash decode %g", decode, costDecodeHashPair)
	}
}

func TestCollectorsCopyEmittedBytes(t *testing.T) {
	// Kernels may reuse buffers between emits; collectors must copy.
	for _, coll := range []collector{&hashCollector{}, &poolCollector{}} {
		coll.reset()
		buf := []byte("x")
		coll.AppendKV([]byte("k"), buf)
		buf[0] = 'y'
		out, _, _ := coll.finish()
		if !bytes.Equal(out.Pair(0).Value, []byte("x")) {
			t.Errorf("%T aliased the emitted value", coll)
		}
	}
}

// TestCollectorBatchHandOff: the batch finish returns holds the chunk's
// pairs — every emit, or with a combiner one combined pair per key — and
// stays intact while the collector collects the next chunk: chunks are
// pipelined, so a chunk's batch may still wait in the retrieve or partition
// queue.
func TestCollectorBatchHandOff(t *testing.T) {
	collect := func(c collector, chunk int) *kv.Batch {
		c.reset()
		for i := 0; i < 50; i++ {
			c.AppendKV([]byte(fmt.Sprintf("k%02d", (7*i+chunk)%13)), []byte{byte(i + chunk)})
		}
		out, _, _ := c.finish()
		return out
	}
	want := func(chunk int, combined bool) []kv.Pair {
		var pairs []kv.Pair
		sums := map[string]byte{}
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("k%02d", (7*i+chunk)%13)
			pairs = append(pairs, kv.Pair{Key: []byte(k), Value: []byte{byte(i + chunk)}})
			sums[k] += byte(i + chunk)
		}
		if combined {
			pairs = pairs[:0]
			for k, v := range sums {
				pairs = append(pairs, kv.Pair{Key: []byte(k), Value: []byte{v}})
			}
		}
		kv.SortPairs(pairs)
		return pairs
	}
	for _, tc := range []struct {
		name     string
		c        collector
		combined bool
	}{
		{"pool", &poolCollector{}, false},
		{"hash", &hashCollector{}, false},
		{"hash+combiner", &hashCollector{combine: sumU32}, true},
	} {
		first := collect(tc.c, 0)
		second := collect(tc.c, 1)
		for chunk, b := range []*kv.Batch{first, second} {
			b.Sort()
			got, exp := b.Pairs(nil), want(chunk, tc.combined)
			if len(got) != len(exp) {
				t.Fatalf("%s chunk %d: %d pairs, want %d", tc.name, chunk, len(got), len(exp))
			}
			for i := range got {
				if got[i].Compare(exp[i]) != 0 {
					t.Fatalf("%s chunk %d pair %d: %q=%v, want %q=%v", tc.name, chunk, i,
						got[i].Key, got[i].Value, exp[i].Key, exp[i].Value)
				}
			}
		}
	}
}

func TestNewCollectorValidation(t *testing.T) {
	app := &App{Name: "t"}
	if c := newCollector(app, Config{Collector: BufferPool}.withDefaults()); c == nil {
		t.Fatal("nil pool collector")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UseCombiner without Combine must panic")
		}
	}()
	newCollector(app, Config{Collector: HashTable, UseCombiner: true}.withDefaults())
}

func TestThreadsPerKeySpeedsUpReduce(t *testing.T) {
	// A compute-heavy reducer with few keys: spreading each key over
	// multiple threads shortens the reduce kernel (paper §III-C, "parallel
	// reduction ... advantageous to compute-intensive applications").
	heavy := &App{
		Name:             "heavy-reduce",
		Parse:            func(b []byte) []kv.Pair { return []kv.Pair{{Value: b}} },
		ParseCostPerByte: 0.1,
		MapBatch: func(recs []kv.Pair, out kv.Sink) {
			for range recs {
				for i := 0; i < 64; i++ {
					out.AppendKV([]byte{byte('a' + i%4)}, []byte{1})
				}
			}
		},
		MapCost:     CostModel{OpsPerRecord: 100, OpsPerEmit: 10},
		ReduceBatch: sumU32,
		// Very expensive per key.
		ReduceCost: CostModel{OpsPerRecord: 5e8, OpsPerValue: 1000},
	}
	run := func(tpk int) float64 {
		rt, d := newRuntime(1, false, 4<<10)
		d.Preload("in", bytes.Repeat([]byte("z"), 4<<10), 0)
		res, err := Run(rt, heavy, Config{
			Input: []string{"in"}, Collector: BufferPool,
			ThreadsPerKey: tpk, PartitionsPerNode: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ReduceElapsed
	}
	one := run(1)
	four := run(4)
	if four >= one {
		t.Fatalf("4 threads/key (%g) should beat 1 (%g)", four, one)
	}
}

func TestScratchBuffersForHugeValueLists(t *testing.T) {
	// One key with a value list far beyond MaxValuesPerLaunch: the reduce
	// pays extra launches carrying scratch state, so a tiny launch bound
	// is slower than a large one — and the answer stays identical.
	app := toyWordCount()
	mkData := func() []byte {
		var sb bytes.Buffer
		for i := 0; i < 3000; i++ {
			sb.WriteString("same\n")
		}
		return sb.Bytes()
	}
	run := func(maxVals int) (*Result, float64) {
		rt, d := newRuntime(1, false, 2<<10)
		preloadText(d, "in", mkData())
		res, err := Run(rt, app, Config{
			Input: []string{"in"}, Collector: BufferPool,
			MaxValuesPerLaunch: maxVals,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The extra launches land in the kernel stage's busy time; the
		// pipeline may hide them from the phase's elapsed time (that is
		// the point of the pipeline), so assert on busy time.
		return res, res.MaxReduceStage().Kernel
	}
	resSmall, small := run(16)
	resBig, big := run(1 << 20)
	if small <= big {
		t.Fatalf("tiny launch bound (kernel busy %g) should cost more than one launch (%g)", small, big)
	}
	countOf := func(r *Result) uint64 {
		var total uint64
		for _, pr := range r.Output() {
			var v int
			if _, err := fmt.Sscanf(string(pr.Value), "%d", &v); err != nil {
				t.Fatalf("bad count %q: %v", pr.Value, err)
			}
			total += uint64(v)
		}
		return total
	}
	if countOf(resSmall) != countOf(resBig) {
		t.Fatal("scratch-buffer path changed the answer")
	}
}
