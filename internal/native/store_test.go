package native

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/kv"
)

func testRun(key, val string) *kv.Run {
	return kv.NewRun([]kv.Pair{{Key: []byte(key), Value: []byte(val)}}, false)
}

// TestStoreAddSpillError drives add into the spill path with an unwritable
// spill directory: the error must come back to the caller and via err().
func TestStoreAddSpillError(t *testing.T) {
	cfg := Config{
		Partitions:     4,
		CacheThreshold: 1, // every add over-budgets the cache
		SpillDir:       filepath.Join(t.TempDir(), "missing", "nested"),
	}.withDefaults()
	store := newPartitionStore(cfg)
	defer store.cleanup()

	var got error
	for i := 0; i < cfg.Partitions && got == nil; i++ {
		got = store.add(i, testRun(fmt.Sprintf("k%d", i), "v"))
	}
	if got == nil {
		t.Fatal("expected a spill error from an unwritable SpillDir")
	}
	store.fail(got)
	if store.err() == nil {
		t.Fatal("err() should surface the recorded failure")
	}
}

// TestStoreShardedConcurrentAdds hammers every partition from many
// goroutines with a tiny threshold (run under -race): all pairs must
// survive the spill and streamed read-back.
func TestStoreShardedConcurrentAdds(t *testing.T) {
	const parts, workers, perWorker = 16, 8, 50
	cfg := Config{
		Partitions:     parts,
		CacheThreshold: 256, // force constant spilling
		SpillDir:       t.TempDir(),
	}.withDefaults()
	store := newPartitionStore(cfg)
	defer store.cleanup()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g := (w*perWorker + i) % parts
				key := fmt.Sprintf("w%02d-i%03d", w, i)
				if err := store.add(g, testRun(key, "x")); err != nil {
					store.fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := store.err(); err != nil {
		t.Fatal(err)
	}
	if store.spillCount() == 0 {
		t.Fatal("expected spills under a 256-byte threshold")
	}
	total := 0
	for g := 0; g < parts; g++ {
		iters, files, err := store.iterators(g)
		if err != nil {
			t.Fatal(err)
		}
		total += len(kv.Drain(kv.Merge(iters...)))
		if err := closeFiles(files); err != nil {
			t.Fatal(err)
		}
	}
	if want := workers * perWorker; total != want {
		t.Fatalf("drained %d pairs, want %d", total, want)
	}
}

// TestStoreSpillAccounting: a spill files the victim partition's runs as
// one run whose booked stored size is the file's size, inside the framing
// bound conformance holds every spilling run to. (The file's layout is
// kv's to assert: TestRunFileRoundTrip.)
func TestStoreSpillAccounting(t *testing.T) {
	cfg := Config{Partitions: 1, CacheThreshold: 64, SpillDir: t.TempDir()}.withDefaults()
	store := newPartitionStore(cfg)
	store.rec = newRecorder(nil)
	defer store.cleanup()
	for i := 0; i < 8; i++ {
		if err := store.add(0, testRun(fmt.Sprintf("key-%02d", i), "some value")); err != nil {
			t.Fatal(err)
		}
	}
	var onDisk int64
	for _, r := range store.shards[0].filed {
		st, err := os.Stat(r.Path())
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != r.StoredBytes() {
			t.Fatalf("%s holds %d bytes, run says %d", r.Path(), st.Size(), r.StoredBytes())
		}
		onDisk += st.Size()
	}
	rec := store.rec
	if onDisk == 0 || rec.spillBytes.Load() != onDisk || int(rec.spillRecords.Load()) == 0 {
		t.Fatalf("stored bytes booked %d, files hold %d, records %d", rec.spillBytes.Load(), onDisk, rec.spillRecords.Load())
	}
	if raw, n := rec.spillRawBytes.Load(), rec.spillRecords.Load(); onDisk < raw || onDisk > raw+10*n {
		t.Fatalf("spilled %d bytes, outside [%d, %d] for %d records", onDisk, raw, raw+10*n, n)
	}
}

// TestStoreReadBackErrorSurfaces: a spill file that lost its last byte is
// only noticed once the merge has drained it; closeFiles must report it so
// the reducer fails the job instead of returning short output.
func TestStoreReadBackErrorSurfaces(t *testing.T) {
	cfg := Config{Partitions: 1, CacheThreshold: 1, SpillDir: t.TempDir()}.withDefaults()
	store := newPartitionStore(cfg)
	defer store.cleanup()
	if err := store.add(0, testRun("key", "value")); err != nil {
		t.Fatal(err)
	}
	filed := store.shards[0].filed
	if len(filed) != 1 {
		t.Fatalf("%d filed runs, want 1", len(filed))
	}
	if err := os.Truncate(filed[0].Path(), filed[0].StoredBytes()-1); err != nil {
		t.Fatal(err)
	}
	iters, files, err := store.iterators(0)
	if err != nil {
		t.Fatal(err)
	}
	got := kv.Drain(kv.Merge(iters...))
	if err := closeFiles(files); err == nil {
		t.Fatalf("truncated spill file drained to %d pairs with no error", len(got))
	}
}

// TestStoreReadBackIsOutOfCore: draining a partition whose filed runs hold
// 8 MiB keeps the live heap far below that — each filed run costs its
// bounded read buffer plus the pair in flight, never a decoded []kv.Pair.
func TestStoreReadBackIsOutOfCore(t *testing.T) {
	const filedBytes, runBytes, liveBound = 8 << 20, 512 << 10, 2 << 20
	cfg := Config{Partitions: 1, CacheThreshold: 1, SpillDir: t.TempDir()}.withDefaults()
	store := newPartitionStore(cfg)
	defer store.cleanup()
	value := bytes.Repeat([]byte("v"), 100)
	pairs := 0
	for r := 0; r < filedBytes/runBytes; r++ {
		var run []kv.Pair
		for i := 0; i < runBytes/128; i++ {
			run = append(run, kv.Pair{Key: []byte(fmt.Sprintf("r%02d-%08d", r, i)), Value: value})
		}
		pairs += len(run)
		if err := store.add(0, kv.NewRun(run, false)); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.cachedBytes.Load(); got != 0 {
		t.Fatalf("%d bytes still resident; the test wants everything filed", got)
	}

	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := liveHeap()
	iters, files, err := store.iterators(0)
	if err != nil {
		t.Fatal(err)
	}
	merged := kv.Merge(iters...)
	var peak uint64
	n := 0
	for _, ok := merged.Next(); ok; _, ok = merged.Next() {
		if n++; n%10000 == 0 {
			peak = max(peak, liveHeap())
		}
	}
	if err := closeFiles(files); err != nil {
		t.Fatal(err)
	}
	if n != pairs {
		t.Fatalf("drained %d pairs, want %d", n, pairs)
	}
	if peak > base+liveBound {
		t.Fatalf("live heap grew %d bytes draining %d filed bytes; bound %d", peak-base, filedBytes, liveBound)
	}
}

// TestRunSurfacesStoreErrorWithoutDeadlock is the regression test for the
// pipeline deadlock: a partition worker that hits a store.add error used to
// return without draining partCh, wedging the map workers forever. The run
// must instead finish and surface the error.
func TestRunSurfacesStoreErrorWithoutDeadlock(t *testing.T) {
	data, _ := apps.WCData(9, 256<<10, 2000)
	blocks := dfs.SplitLines(data, 4<<10) // many chunks in flight
	spillDir := filepath.Join(t.TempDir(), "does-not-exist")
	done := make(chan error, 1)
	go func() {
		_, err := Run(apps.WordCount(), blocks, Config{
			Collector:        core.HashTable,
			CacheThreshold:   1 << 10,
			SpillDir:         spillDir,
			Buffering:        1,
			PartitionThreads: 1,
			KernelWorkers:    4,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected a spill error, got success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked after a store error")
	}
}

// TestSpillStressManyPartitions runs a full job under heavy spill pressure
// with wide fan-out (run under -race in CI): spill + streamed read-back
// under concurrency must preserve every count.
func TestSpillStressManyPartitions(t *testing.T) {
	data, want := apps.WCData(10, 512<<10, 1500)
	blocks := dfs.SplitLines(data, 2<<10)
	for _, compress := range []bool{false, true} {
		res, err := Run(apps.WordCount(), blocks, Config{
			Collector:        core.HashTable,
			KernelWorkers:    8,
			PartitionThreads: 8,
			Partitions:       32,
			Buffering:        3,
			CacheThreshold:   4 << 10,
			SpillDir:         t.TempDir(),
			Compress:         compress,
		})
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if res.SpillFiles == 0 {
			t.Fatalf("compress=%v: expected spill files", compress)
		}
		if err := apps.VerifyCounts(res.Output(), want); err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
	}
}
