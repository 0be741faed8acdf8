//go:build !race

package blockstore

import (
	"fmt"
	"runtime"
	"testing"
)

// putBlock stores one n-byte block as id 0 in a fresh store.
func putBlock(tb testing.TB, n int) *Store {
	s, err := Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.Put(0, data); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestReadAllAllocs gates a warm block read: it allocates the block once,
// not once per chunk on top of the block, and starts no goroutine. The
// race detector's instrumentation allocates, so the file is built without
// it.
func TestReadAllAllocs(t *testing.T) {
	const size, reads = 256 << 10, 20
	s := putBlock(t, size)
	if _, err := s.ReadAll(0); err != nil { // warm: the page cache, the runtime
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		if _, err := s.ReadAll(0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / reads
	t.Logf("ReadAll of a %d-byte block: %.0f bytes allocated per read, %.1f allocations",
		size, perRead, float64(after.Mallocs-before.Mallocs)/reads)
	if lim := 1.25 * size; perRead >= lim {
		t.Errorf("ReadAll allocates %.0f bytes per %d-byte block, want under %.0f", perRead, size, lim)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Errorf("ReadAll left %d goroutines running, want %d", n, goroutines)
	}
}

// BenchmarkReadAll reads one warm block whole.
func BenchmarkReadAll(b *testing.B) {
	for _, size := range []int{256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			s := putBlock(b, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := s.ReadAll(0)
				if err != nil || len(data) != size {
					b.Fatalf("read %d bytes, %v; want %d", len(data), err, size)
				}
			}
		})
	}
}
