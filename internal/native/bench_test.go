package native

import (
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// BenchmarkMapBlock is the map kernel and collector alone — parse, map,
// collect, release — over one 1 MiB block: Zipf text shaped like the
// benchmark's wc-zipf input, which the chunk's table folds into one
// accumulator per key with the combiner and counts per key without it,
// and a TeraSort block, whose unique keys make the table spell its pairs
// out at its first probe. ns/pair is per emitted pair (a word, a record).
func BenchmarkMapBlock(b *testing.B) {
	for _, c := range []struct {
		name    string
		app     *core.App
		block   []byte
		combine bool
	}{
		{"combiner=true", apps.WordCount(), workload.WikiText(7, 1<<20, 41943), true},
		{"combiner=false", apps.WordCount(), workload.WikiText(7, 1<<20, 41943), false},
		{"terasort", apps.TeraSort(), apps.TSData(3, 1<<20/workload.TeraRecordSize), false},
	} {
		_, probe := MapBlock(c.app, c.block, false).Partition(kv.Partition, 1, false)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.block)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MapBlock(c.app, c.block, c.combine).Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*probe.PairsOut), "ns/pair")
		})
	}
}

// BenchmarkPartition is the map side after the kernel — scatter by
// partition, sort each range, serialize each run — timed alone on one
// block's collected output, 8 ways: a 1 MiB TeraSort block under the range
// partitioner (its sample drawn from 16 MiB of input, as the benchmark's
// ts-uniform samples every 16th record), whose pairs the table spelled
// out, so every pair is scattered and sorted; and a 256 KiB WordCount
// block without the combiner under hash partitioning, whose distinct keys
// are scattered and sorted and their counted pairs spelled out into the
// runs. ns/pair is per emitted pair in both.
func BenchmarkPartition(b *testing.B) {
	ts := apps.TSData(3, 16<<20/workload.TeraRecordSize)
	wc := workload.WikiText(7, 256<<10, 41943)
	cases := []struct {
		name  string
		app   *core.App
		block []byte
		part  func(key []byte, n int) int
	}{
		{"ts", apps.TeraSort(), ts[:1<<20/workload.TeraRecordSize*workload.TeraRecordSize], apps.TeraPartitioner(ts, 16)},
		{"wc", apps.WordCount(), wc, kv.Partition},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var pairs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				chunk := MapBlock(c.app, c.block, false)
				b.StartTimer()
				_, st := chunk.Partition(c.part, 8, false)
				pairs += st.PairsOut
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
		})
	}
}
