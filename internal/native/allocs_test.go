//go:build !race

package native

import (
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
			MapBlock(c.app, c.block, core.HashTable, c.combine).Partition(kv.Partition, 4, false)
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
// multiple. The spill row also pins the spilled volume: the store must
// spill, and not 1.25× as much.
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
		spill  int64   // measured Result.SpillBytes; 0 = not checked
	}{
		{"wc-hash", apps.WordCount(), wcBlocks,
			Config{Collector: core.HashTable}, 830, 1.10, 0},
		{"wc-hash-combine", apps.WordCount(), wcBlocks,
			Config{Collector: core.HashTable, UseCombiner: true}, 820, 1.25, 0},
		{"wc-pool", apps.WordCount(), wcBlocks,
			Config{Collector: core.BufferPool}, 830, 1.10, 0},
		{"wc-spill", apps.WordCount(), wcBlocks,
			Config{Collector: core.HashTable, UseCombiner: true, CacheThreshold: 128 << 10}, 1140, 1.25, 144700},
		{"terasort", apps.TeraSort(), dfs.SplitFixed(ts, 64<<10, workload.TeraRecordSize),
			Config{Collector: core.BufferPool, Partitioner: apps.TeraPartitioner(ts, 32)}, 1065, 1.25, 0},
		{"kmeans", apps.KMeans(spec), dfs.SplitFixed(km, 16<<10, int64(spec.Dim*4)),
			Config{Collector: core.HashTable, UseCombiner: true}, 1627, 1.25, 0},
	} {
		sc.cfg.KernelWorkers, sc.cfg.Partitions = 4, 8
		var spill int64
		allocs := testing.AllocsPerRun(3, func() {
			res, err := Run(sc.app, sc.blocks, sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			spill = res.SpillBytes
		})
		t.Logf("%s: %.0f allocations, %d bytes spilled", sc.name, allocs, spill)
		if lim := sc.allocs * sc.budget; allocs > lim {
			t.Errorf("%s: %.0f allocations per job, want at most %.0f", sc.name, allocs, lim)
		}
		if lim := sc.spill * 5 / 4; lim > 0 && (spill == 0 || spill > lim) {
			t.Errorf("%s: %d bytes spilled, want 0 < n <= %d", sc.name, spill, lim)
		}
	}
}
