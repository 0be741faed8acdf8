//go:build !race

package native

import (
	"runtime"
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// TestMapBlockAllocs: the map side of one block — parse, kernel, hash
// table, partition, runs — allocates per block and per run, never per word
// or per key, whether the table folds (the combiner), counts (without it)
// or spells its pairs out (TeraSort's unique keys). On a warm pool a 1 MiB
// Zipf block (some 275 k words folded or counted into some 14 k keys) or
// TeraSort block costs a few dozen allocations; a kernel or fold value
// escaping to the heap costs tens of thousands. The race detector's
// instrumentation allocates, so the file is built without it.
func TestMapBlockAllocs(t *testing.T) {
	wc := workload.WikiText(7, 1<<20, 41943)
	ts := apps.TSData(3, 1<<20/workload.TeraRecordSize)
	for _, c := range []struct {
		name    string
		app     *core.App
		block   []byte
		combine bool
	}{
		{"wc/combiner=true", apps.WordCount(), wc, true},
		{"wc/combiner=false", apps.WordCount(), wc, false},
		{"terasort", apps.TeraSort(), ts, false},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			MapBlock(c.app, c.block, c.combine).Partition(kv.Partition, 4, false)
		})
		t.Logf("%s: %.0f allocations per block", c.name, allocs)
		if allocs > 50 {
			t.Fatalf("MapBlock+Partition, %s: %.0f allocations per block, want at most 50", c.name, allocs)
		}
	}
}

// TestRunAllocs: allocations per whole job for six pinned scenarios (4 kernel
// workers, 8 partitions; AllocsPerRun measures at GOMAXPROCS 1). Each row
// carries the count measured when it was last pinned — map and reduce both
// allocate per block, run, chunk and partition, never per pair or per key
// group — and its budget: 1.25×, or 1.10× where no combiner runs and the job
// is under a thousand allocations, so one per-record allocation site is a
// multiple. The TeraSort row also pins the heap bytes a job allocates
// (TotalAlloc, averaged over the runs), which repeat to the 10 kB, at 1.10×:
// its reduce-less output is sized exactly, and the doubling slice it
// replaced (5.32 MB, under a 1.25× ceiling) fails it. So do the two
// combiner-off WordCount rows, at their higher reading (they take one of
// two values, about 0.1 MB apart, from run to run): their reduce folds each
// key group as it leaves the merge, and a reduce that collects the group's
// values into a slice again (6.18 and 5.95 MB) fails them. The spill row must
// spill; how much depends on the order in which its map workers add runs,
// so the volume is pinned exactly on one kernel worker, where that order is
// fixed.
func TestRunAllocs(t *testing.T) {
	wc, _ := apps.WCData(11, 1<<20, 5000)
	wcBlocks := dfs.SplitLines(wc, 64<<10)
	ts := apps.TSData(12, 20000)
	km, spec := apps.KMData(13, 20000, 16, 4)
	for _, sc := range []struct {
		name   string
		app    *core.App
		blocks [][]byte
		cfg    Config
		allocs float64 // measured
		budget float64 // allowed ratio over it
		spills bool    // the store must spill
		mb     float64 // heap MB allocated per job, measured; budget 1.10× (0: not pinned)
	}{
		{"wc-hash", apps.WordCount(), wcBlocks,
			Config{Collector: core.HashTable}, 830, 1.10, false, 1.79},
		{"wc-hash-combine", apps.WordCount(), wcBlocks,
			Config{Collector: core.HashTable, UseCombiner: true}, 820, 1.25, false, 0},
		{"wc-pool", apps.WordCount(), wcBlocks,
			Config{Collector: core.BufferPool}, 830, 1.10, false, 1.68},
		{"wc-spill", apps.WordCount(), wcBlocks,
			Config{Collector: core.HashTable, UseCombiner: true, CacheThreshold: 128 << 10}, 1140, 1.25, true, 0},
		{"terasort", apps.TeraSort(), dfs.SplitFixed(ts, 64<<10, workload.TeraRecordSize),
			Config{Collector: core.BufferPool, Partitioner: apps.TeraPartitioner(ts, 32)}, 1065, 1.25, false, 4.31},
		{"kmeans", apps.KMeans(spec), dfs.SplitFixed(km, 16<<10, int64(spec.Dim*4)),
			Config{Collector: core.HashTable, UseCombiner: true}, 1627, 1.25, false, 0},
	} {
		sc.cfg.KernelWorkers, sc.cfg.Partitions = 4, 8
		var spill int64
		var before, after runtime.MemStats
		runs := 0
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(3, func() {
			runs++
			res, err := Run(sc.app, sc.blocks, sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			spill = res.SpillBytes
		})
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs) / 1e6
		t.Logf("%s: %.0f allocations, %.2f MB allocated, %d bytes spilled", sc.name, allocs, mb, spill)
		if lim := sc.allocs * sc.budget; allocs > lim {
			t.Errorf("%s: %.0f allocations per job, want at most %.0f", sc.name, allocs, lim)
		}
		if lim := sc.mb * 1.10; sc.mb > 0 && mb > lim {
			t.Errorf("%s: %.2f MB allocated per job, want at most %.2f", sc.name, mb, lim)
		}
		if sc.spills && spill == 0 {
			t.Errorf("%s: nothing spilled", sc.name)
		}
	}
	res, err := Run(apps.WordCount(), wcBlocks, Config{Collector: core.HashTable, UseCombiner: true,
		CacheThreshold: 128 << 10, KernelWorkers: 1, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wc-spill, 1 kernel worker: %d bytes spilled", res.SpillBytes)
	if res.SpillBytes != 144764 {
		t.Errorf("wc-spill on 1 kernel worker spilled %d bytes, want 144764", res.SpillBytes)
	}
}
