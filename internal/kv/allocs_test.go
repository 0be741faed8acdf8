//go:build !race

package kv

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestReadBackAllocs: merging filed and resident runs back — the reduce
// side's read path — allocates per run and per chunk, never per pair. Eight
// runs of 5,000 pairs, four of them filed in one file (two of those
// DEFLATEd), merge back through one descriptor in 35 allocations (ceiling
// 1.5× that); one allocation per pair would be 40,000. The race detector's
// instrumentation allocates, so the file is built without it.
func TestReadBackAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	runs := make([]*Run, 8)
	var filed []*Run
	for i := range runs {
		runs[i] = NewRun(randomSorted(rng, 5000), i%4 == 1)
		if i%2 == 1 {
			filed = append(filed, runs[i])
		}
	}
	path := filepath.Join(t.TempDir(), "spill.run")
	fileRuns(t, path, filed...)
	var pairs int
	allocs := testing.AllocsPerRun(5, func() {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		iters := make([]Iterator, len(runs))
		var files []*FileIter
		for i, r := range runs {
			if r.Path() == "" {
				iters[i] = r.Iter()
				continue
			}
			it, err := r.Stream(f)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, it)
			iters[i] = it
		}
		m := Merge(iters...)
		for pairs = 0; ; pairs++ {
			if _, ok := m.Next(); !ok {
				break
			}
		}
		for _, it := range files {
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
		}
		f.Close()
	})
	t.Logf("%d pairs from %d runs: %.0f allocations", pairs, len(runs), allocs)
	if pairs != 8*5000 {
		t.Fatalf("merged %d pairs, want %d", pairs, 8*5000)
	}
	if allocs > 53 {
		t.Fatalf("%.0f allocations to merge %d pairs back, want at most 53", allocs, pairs)
	}
}

// TestSortRangeAllocs: on a warm batch, scattering by partition and sorting
// every range allocates nothing — the scatter and sort scratch are the
// batch's own. Two ways gives ranges for the radix sort, 32 ways ranges
// below radixMin for the comparison sort.
func TestSortRangeAllocs(t *testing.T) {
	var b Batch
	for _, p := range randomPairs(rand.New(rand.NewSource(23)), 4000) {
		b.Append(p)
	}
	pass := func() {
		for _, n := range []int{2, 32} {
			bounds := b.PartitionRanges(Partition, n)
			for p := 0; p < n; p++ {
				b.SortRange(bounds[p], bounds[p+1])
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("warm PartitionRanges + SortRange: %.0f allocations, want 0", allocs)
	}
}
