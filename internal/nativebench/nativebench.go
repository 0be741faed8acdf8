// Package nativebench pins the wall-clock benchmark scenarios for the
// native runtime. The same scenario table backs the repo's
// `go test -bench Native` benchmarks (bench_native_test.go) and the
// `cmd/nativebench` binary that writes BENCH_native.json, so the tracked
// trajectory and the interactive numbers can never drift apart.
//
// Sizes and worker counts are pinned (not GOMAXPROCS-relative) so numbers
// are comparable across machines and across PRs.
package nativebench

import (
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/native"
	"glasswing/internal/obs"
	"glasswing/internal/workload"
)

// Scenario is one pinned native-runtime workload: an application, a
// deterministic dataset, and a fixed Config.
type Scenario struct {
	Name string
	// Build constructs the app, its input blocks, and the run config.
	// Construction cost (dataset synthesis) is excluded from timing.
	Build func() (*core.App, [][]byte, native.Config)
}

// pinned worker geometry, deliberately independent of GOMAXPROCS.
func pinnedCfg() native.Config {
	return native.Config{
		KernelWorkers: 4,
		Partitions:    8,
	}
}

// Scenarios returns the tracked scenario table. Names are stable
// identifiers — BENCH_native.json rows key on them.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// The allocation-critical path: no combiner, so the map kernel
			// writes every occurrence into the chunk's columnar output and
			// all of them reach the partitioner. No table is involved — the
			// collector shows only under a combiner — so this row and
			// wc-pool run the same code.
			Name: "wc-hash",
			Build: func() (*core.App, [][]byte, native.Config) {
				data, _ := apps.WCData(11, 1<<20, 5000)
				cfg := pinnedCfg()
				cfg.Collector = core.HashTable
				return apps.WordCount(), dfs.SplitLines(data, 64<<10), cfg
			},
		},
		{
			// The combining table: every emit is hashed, and a key's values
			// are folded through App.Combine as they arrive.
			Name: "wc-hash-combine",
			Build: func() (*core.App, [][]byte, native.Config) {
				data, _ := apps.WCData(11, 1<<20, 5000)
				cfg := pinnedCfg()
				cfg.Collector = core.HashTable
				cfg.UseCombiner = true
				return apps.WordCount(), dfs.SplitLines(data, 64<<10), cfg
			},
		},
		{
			Name: "wc-pool",
			Build: func() (*core.App, [][]byte, native.Config) {
				data, _ := apps.WCData(11, 1<<20, 5000)
				cfg := pinnedCfg()
				cfg.Collector = core.BufferPool
				return apps.WordCount(), dfs.SplitLines(data, 64<<10), cfg
			},
		},
		{
			// Spill-pressure variant: a small cache threshold forces the
			// partition store through its spill/readback machinery.
			Name: "wc-spill",
			Build: func() (*core.App, [][]byte, native.Config) {
				data, _ := apps.WCData(11, 1<<20, 5000)
				cfg := pinnedCfg()
				cfg.Collector = core.HashTable
				cfg.UseCombiner = true
				cfg.CacheThreshold = 128 << 10
				return apps.WordCount(), dfs.SplitLines(data, 64<<10), cfg
			},
		},
		{
			Name: "terasort",
			Build: func() (*core.App, [][]byte, native.Config) {
				data := apps.TSData(12, 20000)
				cfg := pinnedCfg()
				cfg.Collector = core.BufferPool
				cfg.Partitioner = apps.TeraPartitioner(data, 32)
				return apps.TeraSort(), dfs.SplitFixed(data, 64<<10, workload.TeraRecordSize), cfg
			},
		},
		{
			Name: "kmeans",
			Build: func() (*core.App, [][]byte, native.Config) {
				data, spec := apps.KMData(13, 20000, 16, 4)
				cfg := pinnedCfg()
				cfg.Collector = core.HashTable
				cfg.UseCombiner = true
				return apps.KMeans(spec), dfs.SplitFixed(data, 16<<10, int64(spec.Dim*4)), cfg
			},
		},
	}
}

// Bench runs one scenario under a testing.B, reporting allocations and a
// pairs/s throughput metric (intermediate pairs produced per wall second).
func Bench(b *testing.B, s Scenario) {
	app, blocks, cfg := s.Build()
	var in int64
	for _, blk := range blocks {
		in += int64(len(blk))
	}
	b.SetBytes(in)
	b.ReportAllocs()
	var pairs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := native.Run(app, blocks, cfg)
		if err != nil {
			b.Fatal(err)
		}
		pairs += int64(res.IntermediatePairs)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(pairs)/sec, "pairs/s")
	}
}

// Result is one measured scenario, the row schema of BENCH_native.json.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	PairsPerSec float64 `json:"pairs_per_sec"`
	MBPerSec    float64 `json:"mb_per_sec"`

	// Telemetry of one instrumented run after the timed iterations (the
	// benchmark loop itself runs uninstrumented): per-stage busy
	// nanoseconds and spill activity.
	StageNs    map[string]int64 `json:"stage_ns,omitempty"`
	SpillFiles int              `json:"spill_files,omitempty"`
	SpillBytes int64            `json:"spill_bytes,omitempty"`
	// ShuffleBytes is the network shuffle volume of one instrumented run
	// (dist scenarios only): bytes of kv runs enqueued to remote peers.
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
	// ReadLocalBytes / ReadRemoteBytes split one instrumented run's input
	// reads by locality (dist block-store scenarios only): the hit ratio
	// local/(local+remote) is a guarded metric.
	ReadLocalBytes  int64 `json:"read_local_bytes,omitempty"`
	ReadRemoteBytes int64 `json:"read_remote_bytes,omitempty"`
}

// Measure benchmarks one scenario via testing.Benchmark and folds the
// outcome into a Result, then does extra instrumented runs for the
// stage/spill telemetry columns.
//
// The probe runs serialize the pipeline (one map worker, which is also one
// reducer at a time): with concurrent workers, a span's wall time absorbs
// whatever other goroutines the scheduler interleaves into it — on a
// GOMAXPROCS-capped host the same stage swings several-fold between
// processes, useless for a regression gate. Serialized, a span covers only
// its own stage's work, so stage_ns tracks per-stage work inflation
// stably; concurrent wall time is what ns_per_op (the timed loop, pinned
// config) is for. The per-stage minimum across probes drops residual
// preemption noise — interference only ever inflates busy time.
func Measure(s Scenario) Result {
	r := testing.Benchmark(func(b *testing.B) { Bench(b, s) })
	res := Result{
		Name:        s.Name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		PairsPerSec: r.Extra["pairs/s"],
	}
	if r.T > 0 {
		res.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	app, blocks, cfg := s.Build()
	cfg.KernelWorkers = 1
	for probe := 0; probe < 5; probe++ {
		cfg.Telemetry = obs.NewTelemetry()
		run, err := native.Run(app, blocks, cfg)
		if err != nil {
			break
		}
		if res.StageNs == nil {
			res.StageNs = make(map[string]int64, len(run.Stages))
		}
		for stage, d := range run.Stages {
			if cur, ok := res.StageNs[stage]; !ok || int64(d) < cur {
				res.StageNs[stage] = int64(d)
			}
		}
		res.SpillFiles = run.SpillFiles
		res.SpillBytes = run.SpillBytes
	}
	return res
}
