package native

import (
	"fmt"
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// BenchmarkMapBlock is the map kernel and collector alone — parse, map,
// collect, release — over one 1 MiB block of Zipf text shaped like the
// benchmark's wc-zipf input. With the combiner the kernel's sink is the
// combining table; without it the kernel writes the chunk's output
// directly, which is the cost the table adds to.
func BenchmarkMapBlock(b *testing.B) {
	block := workload.WikiText(7, 1<<20, 41943)
	app := apps.WordCount()
	probe := MapBlock(app, block, core.HashTable, false)
	words := probe.batch.Len()
	probe.Release()
	for _, combine := range []bool{true, false} {
		b.Run(fmt.Sprintf("combiner=%v", combine), func(b *testing.B) {
			b.SetBytes(int64(len(block)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MapBlock(app, block, core.HashTable, combine).Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words), "ns/word")
		})
	}
}

// BenchmarkPartition is the map side after the kernel — scatter by
// partition, sort each range, serialize each run — timed alone on one
// block's collected output: a 1 MiB TeraSort block under the range
// partitioner (its sample drawn from 16 MiB of input, as the benchmark's
// ts-uniform samples every 16th record) and a 256 KiB WordCount block
// without the combiner under hash partitioning, both 8 ways.
func BenchmarkPartition(b *testing.B) {
	ts := apps.TSData(3, 16<<20/workload.TeraRecordSize)
	cases := []struct {
		name  string
		app   *core.App
		block []byte
		part  func(key []byte, n int) int
	}{
		{"ts", apps.TeraSort(), ts[:1<<20/workload.TeraRecordSize*workload.TeraRecordSize], apps.TeraPartitioner(ts, 16)},
		{"wc", apps.WordCount(), workload.WikiText(7, 256<<10, 41943), kv.Partition},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var pairs int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				chunk := MapBlock(c.app, c.block, core.HashTable, false)
				pairs += chunk.batch.Len()
				b.StartTimer()
				chunk.Partition(c.part, 8, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
		})
	}
}
