package native

import (
	"fmt"
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
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
