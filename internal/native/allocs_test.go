//go:build !race

package native

import (
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// TestMapBlockAllocs: the map side of one block — parse, kernel, combining
// table, partition, runs — allocates per block and per run, never per word
// or per fold. On a warm pool a 1 MiB Zipf block (some 180 k words, some
// 20 k folds) costs a few dozen allocations; a kernel or combiner value
// escaping to the heap costs tens of thousands. The race detector's
// instrumentation allocates, so the file is built without it.
func TestMapBlockAllocs(t *testing.T) {
	block := workload.WikiText(7, 1<<20, 41943)
	app := apps.WordCount()
	allocs := testing.AllocsPerRun(5, func() {
		MapBlock(app, block, core.HashTable, true).Partition(kv.Partition, 4, false)
	})
	if allocs > 50 {
		t.Fatalf("MapBlock+Partition: %.0f allocations per block, want at most 50", allocs)
	}
}
