package native

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/workload"
)

func TestWordCountMatchesReference(t *testing.T) {
	data, want := apps.WCData(1, 512<<10, 3000)
	blocks := dfs.SplitLines(data, 32<<10)
	for _, cfg := range []Config{
		{Collector: core.HashTable, UseCombiner: true},
		{Collector: core.HashTable},
		{Collector: core.BufferPool},
		{Collector: core.HashTable, UseCombiner: true, Compress: true},
		{Collector: core.HashTable, UseCombiner: true, KernelWorkers: 1, Partitions: 1},
	} {
		res, err := Run(apps.WordCount(), blocks, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if err := apps.VerifyCounts(res.Output(), want); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if res.Total <= 0 || res.InputBytes != int64(len(data)) {
			t.Fatalf("cfg %+v: bad accounting %+v", cfg, res)
		}
	}
}

func TestSpillToRealFiles(t *testing.T) {
	data, want := apps.WCData(2, 256<<10, 2000)
	blocks := dfs.SplitLines(data, 8<<10)
	for _, compress := range []bool{false, true} {
		res, err := Run(apps.WordCount(), blocks, Config{
			Collector:      core.HashTable,
			CacheThreshold: 8 << 10, // force spills
			SpillDir:       t.TempDir(),
			Compress:       compress,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.SpillFiles == 0 {
			t.Fatalf("compress=%v: expected spill files under an 8KiB cache threshold", compress)
		}
		if err := apps.VerifyCounts(res.Output(), want); err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
	}
}

func TestTeraSortNative(t *testing.T) {
	data := apps.TSData(3, 20000)
	blocks := dfs.SplitFixed(data, 64<<10, workload.TeraRecordSize)
	res, err := Run(apps.TeraSort(), blocks, Config{
		Collector:   core.BufferPool,
		Partitioner: apps.TeraPartitioner(data, 32),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output() // one slice of exactly the output's pairs
	if err := apps.VerifyTeraSort(out, data); err != nil {
		t.Fatal(err)
	}
	if cap(out) != len(out) {
		t.Errorf("%d output pairs in a slice of %d", len(out), cap(out))
	}
}

func TestKMeansNative(t *testing.T) {
	data, spec := apps.KMData(4, 20000, 4, 32)
	blocks := dfs.SplitFixed(data, 16<<10, int64(spec.Dim*4))
	res, err := Run(apps.KMeans(spec), blocks, Config{
		Collector: core.HashTable, UseCombiner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyKMeans(res.Output(), data, spec); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulNative(t *testing.T) {
	spec := apps.MMSpec{N: 64, Tile: 16}
	input, a, b, err := apps.MMData(5, spec)
	if err != nil {
		t.Fatal(err)
	}
	blocks := dfs.SplitFixed(input, 32<<10, int64(spec.RecordSize()))
	res, err := Run(apps.MatMul(spec), blocks, Config{Collector: core.BufferPool})
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyMatMul(res.Output(), a, b, spec); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(&core.App{Name: "x"}, nil, Config{}); err == nil {
		t.Error("app without kernels should fail")
	}
	if _, err := Run(apps.WordCount(), nil, Config{UseCombiner: true, Collector: core.BufferPool}); err == nil {
		t.Error("combiner with buffer pool should fail")
	}
	// An app that can combine only in the simulator is refused, not run
	// uncombined.
	unfolded := apps.WordCount()
	unfolded.Fold = nil
	if _, err := Run(unfolded, nil, Config{UseCombiner: true, Collector: core.HashTable}); err == nil || !strings.Contains(err.Error(), "Fold") {
		t.Errorf("combiner with Combine but no Fold: %v, want an error naming Fold", err)
	}
	if _, err := Run(unfolded, nil, Config{Collector: core.HashTable}); err != nil {
		t.Errorf("no Fold without the combiner: %v", err)
	}
	// Empty input is fine: empty output.
	res, err := Run(apps.WordCount(), nil, Config{Collector: core.HashTable})
	if err != nil || res.OutputPairs != 0 {
		t.Errorf("empty input: %v %+v", err, res)
	}
}

func TestQuickRandomNativeConfig(t *testing.T) {
	data, want := apps.WCData(6, 64<<10, 800)
	blocks := dfs.SplitLines(data, 4<<10)
	f := func(seed uint32) bool {
		r := seed
		next := func(n int) int {
			r = r*1664525 + 1013904223
			return int(r>>8) % n
		}
		cfg := Config{
			KernelWorkers: 1 + next(8),
			Partitions:    1 + next(12),
			Compress:      next(2) == 0,
		}
		if next(2) == 0 {
			cfg.Collector = core.HashTable
			cfg.UseCombiner = next(2) == 0
		} else {
			cfg.Collector = core.BufferPool
		}
		if next(3) == 0 {
			cfg.CacheThreshold = int64(1 << (10 + next(6)))
		}
		res, err := Run(apps.WordCount(), blocks, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got, err := apps.CountsFromOutput(res.Output())
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for k, n := range want {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelismActuallyHelps(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-CPU environment")
	}
	// Compute-heavy KM: the parallel run should beat one worker. Wall
	// times are noisy, so only require SOME speedup over serial.
	data, spec := apps.KMData(7, 200000, 4, 64)
	blocks := dfs.SplitFixed(data, 64<<10, int64(spec.Dim*4))
	app := apps.KMeans(spec)
	run := func(workers int) float64 {
		res, err := Run(app, blocks, Config{
			Collector: core.HashTable, UseCombiner: true, KernelWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Total.Seconds()
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	t.Logf("serial %.3fs, parallel %.3fs (%.2fx)", serial, parallel, serial/parallel)
	if parallel > serial*1.1 {
		t.Errorf("parallel run (%.3fs) slower than serial (%.3fs)", parallel, serial)
	}
}

func ExampleRun() {
	blocks := [][]byte{[]byte("to be or not to be\n")}
	res, _ := Run(apps.WordCount(), blocks, Config{
		Collector: core.HashTable, UseCombiner: true, Partitions: 1,
	})
	counts, _ := apps.CountsFromOutput(res.Output())
	fmt.Println(counts["to"], counts["be"], counts["or"])
	// Output: 2 2 1
}
