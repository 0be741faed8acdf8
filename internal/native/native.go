// Package native executes Glasswing applications on the real host: the same
// App/collector semantics and the same stages as the simulated engine in
// internal/core, processing data with genuine parallelism and measuring
// wall-clock time.
//
// internal/core exists to reproduce the paper's cluster/GPU evaluation on
// simulated hardware; this package is the runtime a downstream user points
// at real bytes. The "compute device" is the host CPU (the paper's CPU
// driver with unified memory — Stage and Retrieve are no-ops), the "cluster"
// is one process, and the intermediate-data manager (kv.RunStore) spills to
// real temporary files when the cache threshold is exceeded.
//
// The paper splits its map pipeline into a kernel stage and a partition
// stage because the kernel runs on a device while host threads partition
// (§III-A). Here both run on the same cores, where a static split only
// idles whichever pool is the smaller, so a map task is one goroutine that
// takes a block through kernel, partition and store, cache-warm, and the
// map phase is KernelWorkers of those. The stages survive as spans, and their
// boundaries count into core.Conserv — the conservation ledger the simulator
// and internal/dist count into too.
package native

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// Config tunes the native pipeline. The names mirror the paper's
// Configuration API where they apply to a single-host run.
type Config struct {
	// KernelWorkers is the number of map workers (0 = GOMAXPROCS), each
	// taking one block at a time through kernel, partition and store — so
	// also the bound on chunks in flight — and the number of partitions
	// reduced at once. The analog of the OpenCL global size on the CPU
	// device.
	KernelWorkers int
	// Partitions is P: intermediate partitions (reduce parallelism).
	Partitions int
	// Collector names the simulated engine's kernel output mechanism. Here
	// it selects no code: CheckCombiner reads it, and refuses UseCombiner
	// unless it is core.HashTable.
	Collector core.CollectorKind
	// UseCombiner folds each chunk's hash table with App.Fold.
	UseCombiner bool
	// Compress stores intermediate runs DEFLATE-compressed.
	Compress bool
	// CacheThreshold is the in-memory intermediate cache bound in bytes;
	// above it, partitions spill to temporary files (0 = never spill).
	CacheThreshold int64
	// SpillDir receives spill files (default os.TempDir()).
	SpillDir string
	// Partitioner overrides hash partitioning.
	Partitioner func(key []byte, n int) int
	// Telemetry, if set, receives wall-clock stage spans (map/kernel,
	// map/partition, spill, reduce) plus allocation and spill
	// counters. Nil keeps the hot path free of span and memory-stat
	// overhead; the cheap per-stage busy totals in Result.Stages are
	// collected either way.
	Telemetry *obs.Telemetry
}

func (c Config) withDefaults() Config {
	if c.KernelWorkers <= 0 {
		c.KernelWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Partitions <= 0 {
		c.Partitions = max(1, runtime.GOMAXPROCS(0))
	}
	if c.Partitioner == nil {
		c.Partitioner = kv.Partition
	}
	return c
}

// Result reports a native run with wall-clock phase times.
type Result struct {
	App        string
	MapElapsed time.Duration
	// MergeDelay is the gap between the end of the map phase and the start
	// of reduce. Nothing runs in it — each partition's only merge is its
	// reducer's — so it is ~0. It survives because bench/gwbench reads it
	// for the native.merge_* rows; it goes when a benchmark PR drops them.
	MergeDelay    time.Duration
	ReduceElapsed time.Duration
	Total         time.Duration

	// InputBytes and Pairs summarize the data volume.
	InputBytes        int64
	IntermediatePairs int
	OutputPairs       int
	SpillFiles        int
	// SpillBytes is the on-disk spill volume (after compression, if any).
	SpillBytes int64

	// Stages is the per-stage wall-clock busy time, summed across workers
	// (so a stage served by several goroutines can exceed the phase
	// elapsed time). Stages that never ran are absent.
	Stages map[string]time.Duration

	outputs [][]kv.Pair // per partition, key-sorted
}

// Output returns the final pairs in partition order; within a partition
// keys are sorted, so a range partitioner yields totally ordered output.
func (r *Result) Output() []kv.Pair {
	n := 0
	for _, part := range r.outputs {
		n += len(part)
	}
	out := make([]kv.Pair, 0, n)
	for _, part := range r.outputs {
		out = append(out, part...)
	}
	return out
}

// newRunStore returns a job's intermediate-data store: past
// cfg.CacheThreshold resident bytes it files runs in a temporary directory
// under cfg.SpillDir, made at the first spill and removed by cleanup, which
// does nothing when called again.
func newRunStore(cfg Config, rec *recorder) (store *kv.RunStore, cleanup func()) {
	var dir string
	store = kv.NewRunStore(cfg.CacheThreshold, func() (string, error) {
		if dir == "" {
			d, err := os.MkdirTemp(cfg.SpillDir, "glasswing-spill-")
			if err != nil {
				return "", fmt.Errorf("creating spill dir: %w", err)
			}
			dir = d
		}
		return dir, nil
	}, rec.spilled)
	return store, func() {
		if dir != "" {
			os.RemoveAll(dir)
			dir = ""
		}
	}
}

// forEach calls fn(w, i) for every i in [0, n) from workers goroutines,
// w in [0, workers) naming the one that calls, each claiming the next index
// when it has finished its last, so every worker is busy until the indices
// run out. After the first error no further index is claimed; forEach waits
// for the calls in flight and returns that error.
func forEach(n, workers int, fn func(w, i int) error) error {
	var next atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := fn(w, i); err != nil {
					next.Store(int64(n))
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs // the first error sent; nil from the closed channel if none was
}

// CheckCombiner is the one rule for a map-side combiner, in every runtime:
// a job may ask for one only if its app has a Combine kernel and it
// collects into the hash table, which is where the combiner folds. A real
// runtime folds through App.Fold, so an app without one is refused rather
// than run uncombined. It is the only code in the real runtimes that reads
// the collector: each entry point (Run, dist's Options.check, the job
// service's request parser) checks it, and MapBlock then sees only the
// combine bit.
func CheckCombiner(app *core.App, collector core.CollectorKind, useCombiner bool) error {
	switch {
	case !useCombiner:
		return nil
	case app.Combine == nil || collector != core.HashTable:
		return fmt.Errorf("combiner requires App.Combine and the hash-table collector")
	case app.Fold == nil:
		return fmt.Errorf("combiner requires App.Fold: app %q has a Combine kernel but no fold for the real runtimes", app.Name)
	}
	return nil
}

// Run executes app over the input blocks and returns the result. Blocks
// are the unit of map-chunk parallelism (split files on record boundaries;
// package dfs's SplitLines/SplitFixed do this for text and fixed records).
func Run(app *core.App, blocks [][]byte, cfg Config) (*Result, error) {
	// The phases cover the call: map from here, reduce to the return.
	start := time.Now()
	cfg = cfg.withDefaults()
	if app.MapBatch == nil || app.Parse == nil {
		return nil, fmt.Errorf("native: app %q needs Parse and MapBatch", app.Name)
	}
	if err := CheckCombiner(app, cfg.Collector, cfg.UseCombiner); err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}
	res := &Result{App: app.Name}
	for _, b := range blocks {
		res.InputBytes += int64(len(b))
	}
	rec := newRecorder(cfg.Telemetry)

	store, cleanup := newRunStore(cfg, rec)
	defer cleanup() // a failed job's; a finished one's reduce phase removes its spills

	// ---- Map phase: each worker takes a block through kernel, partition
	// and store. A failed spill fails the job. ----
	err := forEach(len(blocks), cfg.KernelWorkers, func(_, i int) error {
		t0 := time.Now()
		c := MapBlock(app, blocks[i], cfg.UseCombiner)
		kernel := rec.kernel(t0)
		t0 = time.Now()
		runs, st := c.Partition(cfg.Partitioner, cfg.Partitions, cfg.Compress)
		rec.tr.Record(obs.StageMapPartition, t0, kernel)
		st.Book(&rec.Conserv)
		for g, run := range runs {
			if run == nil {
				continue
			}
			rec.StoreAccepted.Add(int64(run.Records))
			if err := store.Add(g, i, run); err != nil {
				return fmt.Errorf("native: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.MapElapsed = time.Since(start)
	res.IntermediatePairs = int(rec.MapPairsOut.Value() - rec.base.pairsOut)
	res.SpillFiles = int(rec.SpillFiles.Value() - rec.base.spillFiles)
	res.SpillBytes = rec.SpillStoredBytes.Value() - rec.base.spillBytes

	// ---- Reduce phase: partitions in parallel, each k-way merging its
	// resident and filed runs — the only merge a partition gets. ----
	reduceStart := time.Now()
	res.MergeDelay = reduceStart.Sub(start) - res.MapElapsed
	res.outputs = make([][]kv.Pair, cfg.Partitions)
	// One merger per reducing goroutine, allocated by that goroutine: side
	// by side in one array, two mergers shared cache lines that each
	// writes per key group.
	mergers := make([]*kv.Merger, cfg.KernelWorkers)
	err = forEach(cfg.Partitions, cfg.KernelWorkers, func(w, g int) error {
		defer rec.tr.Record(obs.StageReduce, time.Now(), 0)
		if mergers[w] == nil {
			mergers[w] = new(kv.Merger)
		}
		iters, closeSpills, spillErr := store.Iters(g)
		out, records, groups := ReducePartition(app, mergers[w], iters)
		closeSpills()
		if err := spillErr(); err != nil {
			// A spill file would not open or failed mid-stream: the merge
			// ended early, so out is short. Fail the job rather than
			// return it.
			return fmt.Errorf("native: %w", err)
		}
		rec.ReduceRecordsIn.Add(records)
		rec.ReduceGroupsIn.Add(groups)
		rec.OutputPairs.Add(int64(len(out)))
		res.outputs[g] = out
		return nil
	})
	cleanup()
	if err != nil {
		return nil, err
	}
	for _, part := range res.outputs {
		res.OutputPairs += len(part)
	}
	res.Stages = rec.tr.Busy()
	res.ReduceElapsed = time.Since(reduceStart)
	res.Total = time.Since(start)
	rec.publish(res)
	return res, nil
}
