package apps

import (
	"testing"

	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/gpmr"
	"glasswing/internal/hadoop"
	"glasswing/internal/hw"
	"glasswing/internal/sim"
	"glasswing/internal/workload"
)

// rig builds a small cluster with both HDFS and everything preloaded via fn.
func rig(nodes int, gpu bool, blockSize int64) (*sim.Env, *hw.Cluster, *dfs.DFS) {
	env := sim.NewEnv()
	cluster := hw.NewCluster(env, nodes, hw.Type1(gpu))
	d := dfs.New(cluster, blockSize, min(3, nodes))
	return env, cluster, d
}

func glasswingRun(t *testing.T, app *core.App, cluster *hw.Cluster, fs dfs.FS, cfg core.Config, prelude func(*sim.Proc, *hw.Cluster)) *core.Result {
	t.Helper()
	res, err := core.Run(&core.Runtime{Cluster: cluster, FS: fs, Prelude: prelude}, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWordCountAllEngines(t *testing.T) {
	data, want := WCData(1, 200<<10, 4000)
	blocks := dfs.SplitLines(data, 32<<10)

	t.Run("glasswing", func(t *testing.T) {
		_, cluster, d := rig(3, false, 32<<10)
		d.PreloadBlocks("wc", blocks, 0)
		res := glasswingRun(t, WordCount(), cluster, d, core.Config{
			Input: []string{"wc"}, Collector: core.HashTable, UseCombiner: true, Compress: true,
		}, nil)
		if err := VerifyCounts(res.Output(), want); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("hadoop", func(t *testing.T) {
		_, cluster, d := rig(3, false, 32<<10)
		d.PreloadBlocks("wc", blocks, 0)
		res, err := hadoop.Run(&hadoop.Runtime{Cluster: cluster, FS: d}, WordCount(),
			hadoop.Config{Input: []string{"wc"}, UseCombiner: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCounts(res.Output(), want); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("gpmr", func(t *testing.T) {
		env := sim.NewEnv()
		cluster := hw.NewCluster(env, 3, hw.Type1(true))
		l := dfs.NewLocal(cluster, 32<<10)
		l.PreloadBlocks("wc", blocks, 0)
		res, err := gpmr.Run(&gpmr.Runtime{Cluster: cluster, FS: l}, WordCount(),
			gpmr.Config{Input: []string{"wc"}, PartialReduce: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCounts(res.Output(), want); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPageviewCount(t *testing.T) {
	data, want := PVCData(2, 150<<10)
	_, cluster, d := rig(2, false, 32<<10)
	d.PreloadBlocks("pvc", dfs.SplitLines(data, 32<<10), 0)
	res := glasswingRun(t, PageviewCount(), cluster, d, core.Config{
		Input: []string{"pvc"}, Collector: core.HashTable, UseCombiner: true,
	}, nil)
	if err := VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	// PVC's defining property: nearly every key is unique, so the combiner
	// barely shrinks anything and the key space is massive.
	if len(want) < 1000 {
		t.Fatalf("PVC key space suspiciously small: %d", len(want))
	}
}

func TestTeraSortTotalOrder(t *testing.T) {
	data := TSData(3, 3000)
	blocks := dfs.SplitFixed(data, 16<<10, workload.TeraRecordSize)

	t.Run("glasswing", func(t *testing.T) {
		_, cluster, d := rig(4, false, 16<<10)
		d.PreloadBlocks("ts", blocks, 0)
		res := glasswingRun(t, TeraSort(), cluster, d, core.Config{
			Input: []string{"ts"}, Collector: core.BufferPool,
			Partitioner:       TeraPartitioner(data, 16),
			OutputReplication: 1,
		}, nil)
		if err := VerifyTeraSort(res.Output(), data); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("hadoop", func(t *testing.T) {
		_, cluster, d := rig(4, false, 16<<10)
		d.PreloadBlocks("ts", blocks, 0)
		res, err := hadoop.Run(&hadoop.Runtime{Cluster: cluster, FS: d}, TeraSort(),
			hadoop.Config{Input: []string{"ts"}, Partitioner: TeraPartitioner(data, 16), OutputReplication: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyTeraSort(res.Output(), data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestKMeansAllEngines(t *testing.T) {
	data, spec := KMData(4, 6000, 4, 16)
	blocks := dfs.SplitFixed(data, 8<<10, int64(spec.Dim*4))
	app := KMeans(spec)

	t.Run("glasswing-cpu", func(t *testing.T) {
		_, cluster, d := rig(2, false, 8<<10)
		d.PreloadBlocks("km", blocks, 0)
		res := glasswingRun(t, app, cluster, d, core.Config{
			Input: []string{"km"}, Collector: core.HashTable, UseCombiner: true,
		}, spec.Prelude())
		if err := VerifyKMeans(res.Output(), data, spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("glasswing-gpu", func(t *testing.T) {
		_, cluster, d := rig(2, true, 8<<10)
		d.PreloadBlocks("km", blocks, 0)
		res := glasswingRun(t, app, cluster, d, core.Config{
			Input: []string{"km"}, Device: 1, Collector: core.HashTable, UseCombiner: true,
		}, spec.Prelude())
		if err := VerifyKMeans(res.Output(), data, spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("hadoop", func(t *testing.T) {
		_, cluster, d := rig(2, false, 8<<10)
		d.PreloadBlocks("km", blocks, 0)
		res, err := hadoop.Run(&hadoop.Runtime{Cluster: cluster, FS: d}, app,
			hadoop.Config{Input: []string{"km"}, UseCombiner: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyKMeans(res.Output(), data, spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("gpmr", func(t *testing.T) {
		env := sim.NewEnv()
		cluster := hw.NewCluster(env, 2, hw.Type1(true))
		l := dfs.NewLocal(cluster, 8<<10)
		l.PreloadBlocks("km", blocks, 0)
		res, err := gpmr.Run(&gpmr.Runtime{Cluster: cluster, FS: l}, app,
			gpmr.Config{Input: []string{"km"}, PartialReduce: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyKMeans(res.Output(), data, spec); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMatMulAllEngines(t *testing.T) {
	spec := MMSpec{N: 64, Tile: 16}
	input, a, b, err := MMData(5, spec)
	if err != nil {
		t.Fatal(err)
	}
	blocks := dfs.SplitFixed(input, 32<<10, int64(spec.RecordSize()))
	app := MatMul(spec)

	t.Run("glasswing", func(t *testing.T) {
		_, cluster, d := rig(2, true, 32<<10)
		d.PreloadBlocks("mm", blocks, 0)
		res := glasswingRun(t, app, cluster, d, core.Config{
			Input: []string{"mm"}, Device: 1, Collector: core.BufferPool,
		}, nil)
		if err := VerifyMatMul(res.Output(), a, b, spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("hadoop", func(t *testing.T) {
		_, cluster, d := rig(2, false, 32<<10)
		d.PreloadBlocks("mm", blocks, 0)
		res, err := hadoop.Run(&hadoop.Runtime{Cluster: cluster, FS: d}, app,
			hadoop.Config{Input: []string{"mm"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMatMul(res.Output(), a, b, spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("gpmr", func(t *testing.T) {
		env := sim.NewEnv()
		cluster := hw.NewCluster(env, 2, hw.Type1(true))
		l := dfs.NewLocal(cluster, 32<<10)
		l.PreloadBlocks("mm", blocks, 0)
		res, err := gpmr.Run(&gpmr.Runtime{Cluster: cluster, FS: l}, app,
			gpmr.Config{Input: []string{"mm"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMatMul(res.Output(), a, b, spec); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTeraPartitionerMonotone(t *testing.T) {
	data := TSData(6, 2000)
	part := TeraPartitioner(data, 8)
	// Partition ids must be monotone in key order.
	var keys [][]byte
	for i := 0; i < 2000; i++ {
		keys = append(keys, data[i*workload.TeraRecordSize:i*workload.TeraRecordSize+10])
	}
	for n := 2; n <= 64; n *= 4 {
		// Check monotonicity over sorted keys.
		sorted := make([][]byte, len(keys))
		copy(sorted, keys)
		sortBytes(sorted)
		last := 0
		for _, k := range sorted {
			p := part(k, n)
			if p < last {
				t.Fatalf("partitioner not monotone: %d after %d (n=%d)", p, last, n)
			}
			if p < 0 || p >= n {
				t.Fatalf("partition %d out of range (n=%d)", p, n)
			}
			last = p
		}
	}
}

func sortBytes(b [][]byte) {
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && string(b[j]) < string(b[j-1]); j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

func TestKMValueRoundTrip(t *testing.T) {
	sum := []float64{1.5, -2.25, 3.125}
	b := make([]byte, 3*8+8)
	encodeKMValueInto(b, sum, 42)
	got, count, err := decodeKMValue(b, 3)
	if err != nil || count != 42 {
		t.Fatalf("decode: %v count=%d", err, count)
	}
	for i := range sum {
		if got[i] != sum[i] {
			t.Fatalf("dim %d: %g != %g", i, got[i], sum[i])
		}
	}
	if _, _, err := decodeKMValue(b, 4); err == nil {
		t.Fatal("wrong dim should error")
	}
}

func TestTileRoundTrip(t *testing.T) {
	tile := []float32{1, 2, 3, 4.5, -1, 0, 7, 8, 9}
	got := decodeTile(encodeTile(tile), 3)
	for i := range tile {
		if got[i] != tile[i] {
			t.Fatalf("tile[%d] = %g, want %g", i, got[i], tile[i])
		}
	}
}

// Ensure pair-volume stays sane: a KM run's intermediate data must be far
// smaller with the combiner than without.
func TestKMeansCombinerVolume(t *testing.T) {
	data, spec := KMData(8, 4000, 4, 8)
	blocks := dfs.SplitFixed(data, 8<<10, int64(spec.Dim*4))
	app := KMeans(spec)
	run := func(comb bool) *core.Result {
		_, cluster, d := rig(1, false, 8<<10)
		d.PreloadBlocks("km", blocks, 0)
		coll := core.BufferPool
		if comb {
			coll = core.HashTable
		}
		return glasswingRun(t, app, cluster, d, core.Config{
			Input: []string{"km"}, Collector: coll, UseCombiner: comb,
		}, nil)
	}
	with := run(true)
	without := run(false)
	if with.IntermediateBytes*4 > without.IntermediateBytes {
		t.Fatalf("combiner saved too little: %d vs %d", with.IntermediateBytes, without.IntermediateBytes)
	}
	if err := VerifyKMeans(with.Output(), data, spec); err != nil {
		t.Fatal(err)
	}
	if err := VerifyKMeans(without.Output(), data, spec); err != nil {
		t.Fatal(err)
	}
}
