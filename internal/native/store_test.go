package native

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

func testRun(key, val string) *kv.Run {
	return kv.NewRun([]kv.Pair{{Key: []byte(key), Value: []byte(val)}}, false)
}

// The store tests below drive kv.RunStore the way Run does: through
// newRunStore, so the temporary-directory provider and the recorder hook
// are under test with it.

// TestStoreAddSpillError drives Add into the spill path with an unwritable
// spill directory: the error must come back to the caller, with the run
// still committed.
func TestStoreAddSpillError(t *testing.T) {
	cfg := Config{
		Partitions:     4,
		CacheThreshold: 1, // every add over-budgets the cache
		SpillDir:       filepath.Join(t.TempDir(), "missing", "nested"),
	}.withDefaults()
	store, cleanup := newRunStore(cfg, newRecorder(nil))
	defer cleanup()

	if err := store.Add(0, 0, testRun("k0", "v")); err == nil {
		t.Fatal("expected a spill error from an unwritable SpillDir")
	}
	iters, closeSpills, spillErr := store.Iters(0)
	defer closeSpills()
	if n := len(kv.Drain(kv.Merge(iters...))); n != 1 || spillErr() != nil {
		t.Fatalf("after the failed spill: %d pairs, err %v; want the added pair, still resident", n, spillErr())
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
	rec := newRecorder(nil)
	store, cleanup := newRunStore(cfg, rec)
	defer cleanup()

	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g := (w*perWorker + i) % parts
				key := fmt.Sprintf("w%02d-i%03d", w, i)
				if err := store.Add(g, w, testRun(key, "x")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if rec.SpillFiles.Value() == 0 {
		t.Fatal("expected spills under a 256-byte threshold")
	}
	total := 0
	for g := 0; g < parts; g++ {
		iters, closeSpills, spillErr := store.Iters(g)
		total += len(kv.Drain(kv.Merge(iters...)))
		closeSpills()
		if err := spillErr(); err != nil {
			t.Fatal(err)
		}
	}
	if want := workers * perWorker; total != want {
		t.Fatalf("drained %d pairs, want %d", total, want)
	}
}

// TestStoreSpillAccounting: a spill appends each of the victim partition's
// runs on its own to the partition's one file; the booked stored size is
// the file's size — the sum of its filed runs — inside the framing bound
// conformance holds every spilling run to, the file count is still the
// number of filed runs, and cleanup leaves nothing behind. (The file's
// layout is kv's to assert: TestRunFileRoundTrip.)
func TestStoreSpillAccounting(t *testing.T) {
	spillDir := t.TempDir()
	cfg := Config{Partitions: 1, CacheThreshold: 64, SpillDir: spillDir}.withDefaults()
	rec := newRecorder(nil)
	store, cleanup := newRunStore(cfg, rec)
	for i := 0; i < 8; i++ {
		if err := store.Add(0, i, testRun(fmt.Sprintf("key-%02d", i), "some value")); err != nil {
			t.Fatal(err)
		}
	}
	var filedBytes, files int64
	var path string
	for _, tr := range store.Runs(0) {
		r := tr.Run
		if r.Path() == "" {
			continue
		}
		if path == "" {
			path = r.Path()
		}
		if r.Path() != path {
			t.Fatalf("partition 0 filed runs in %s and %s, want one file", path, r.Path())
		}
		files++
		filedBytes += r.StoredBytes()
	}
	if files < 2 {
		t.Fatalf("%d runs filed, want several in one file", files)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := st.Size()
	if onDisk != filedBytes {
		t.Fatalf("%s holds %d bytes, its %d filed runs %d", path, onDisk, files, filedBytes)
	}
	if rec.SpillStoredBytes.Value() != onDisk || rec.SpillRecords.Value() != files || rec.SpillFiles.Value() != files {
		t.Fatalf("stored bytes booked %d in %d files of %d records; %d runs hold %d",
			rec.SpillStoredBytes.Value(), rec.SpillFiles.Value(), rec.SpillRecords.Value(), files, onDisk)
	}
	if raw, n := rec.SpillRawBytes.Value(), rec.SpillRecords.Value(); onDisk < raw || onDisk > raw+10*n {
		t.Fatalf("spilled %d bytes, outside [%d, %d] for %d records", onDisk, raw, raw+10*n, n)
	}
	if rec.tr.Busy()[obs.StageSpill] <= 0 {
		t.Fatal("no spill time booked")
	}
	cleanup()
	if left, err := os.ReadDir(spillDir); err != nil || len(left) != 0 {
		t.Fatalf("cleanup left %d entries under SpillDir (err %v)", len(left), err)
	}
}

// TestStoreReadBackErrorSurfaces: a spill file that lost its last byte is
// only noticed once the merge has drained it; the store's deferred error
// must report it so the reducer fails the job instead of returning short
// output.
func TestStoreReadBackErrorSurfaces(t *testing.T) {
	cfg := Config{Partitions: 1, CacheThreshold: 1, SpillDir: t.TempDir()}.withDefaults()
	store, cleanup := newRunStore(cfg, newRecorder(nil))
	defer cleanup()
	if err := store.Add(0, 0, testRun("key", "value")); err != nil {
		t.Fatal(err)
	}
	runs := store.Runs(0)
	if len(runs) != 1 || runs[0].Run.Path() == "" {
		t.Fatalf("%d runs, want 1, filed", len(runs))
	}
	if err := os.Truncate(runs[0].Run.Path(), runs[0].Run.StoredBytes()-1); err != nil {
		t.Fatal(err)
	}
	iters, closeSpills, spillErr := store.Iters(0)
	defer closeSpills()
	got := kv.Drain(kv.Merge(iters...))
	if spillErr() == nil {
		t.Fatalf("truncated spill file drained to %d pairs with no error", len(got))
	}
}

// TestStoreReadBackIsOutOfCore: draining a partition whose filed runs hold
// 8 MiB keeps the live heap far below that — each filed run costs its
// bounded read buffer plus the pair in flight, never a decoded []kv.Pair.
func TestStoreReadBackIsOutOfCore(t *testing.T) {
	const filedBytes, runBytes, liveBound = 8 << 20, 512 << 10, 2 << 20
	cfg := Config{Partitions: 1, CacheThreshold: 1, SpillDir: t.TempDir()}.withDefaults()
	store, cleanup := newRunStore(cfg, newRecorder(nil))
	defer cleanup()
	value := bytes.Repeat([]byte("v"), 100)
	pairs := 0
	for r := 0; r < filedBytes/runBytes; r++ {
		var run []kv.Pair
		for i := 0; i < runBytes/128; i++ {
			run = append(run, kv.Pair{Key: []byte(fmt.Sprintf("r%02d-%08d", r, i)), Value: value})
		}
		pairs += len(run)
		if err := store.Add(0, r, kv.NewRun(run, false)); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.Resident(); got != 0 {
		t.Fatalf("%d bytes still resident; the test wants everything filed", got)
	}

	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := liveHeap()
	iters, closeSpills, spillErr := store.Iters(0)
	merged := kv.Merge(iters...)
	var peak uint64
	n := 0
	for _, ok := merged.Next(); ok; _, ok = merged.Next() {
		if n++; n%10000 == 0 {
			peak = max(peak, liveHeap())
		}
	}
	closeSpills()
	if err := spillErr(); err != nil {
		t.Fatal(err)
	}
	if n != pairs {
		t.Fatalf("drained %d pairs, want %d", n, pairs)
	}
	if peak > base+liveBound {
		t.Fatalf("live heap grew %d bytes draining %d filed bytes; bound %d", peak-base, filedBytes, liveBound)
	}
}

// TestRunSurfacesStoreErrorWithoutDeadlock: a spill that fails must end the
// job promptly with the spill error. A map worker runs kernel, partition and
// store on one goroutine and there is no channel between workers to wedge
// on, so the worker that sees the error reports it, the others stop
// claiming blocks, and Run leaves no goroutine behind.
func TestRunSurfacesStoreErrorWithoutDeadlock(t *testing.T) {
	data, _ := apps.WCData(9, 256<<10, 2000)
	blocks := dfs.SplitLines(data, 4<<10) // many more blocks than workers
	spillDir := filepath.Join(t.TempDir(), "does-not-exist")
	app := apps.WordCount()
	var mapCalls atomic.Int64
	mapBatch := app.MapBatch
	app.MapBatch = func(recs []kv.Pair, out kv.Sink) {
		mapCalls.Add(1)
		mapBatch(recs, out)
	}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := Run(app, blocks, Config{
			Collector:      core.HashTable,
			CacheThreshold: 1 << 10,
			SpillDir:       spillDir,
			KernelWorkers:  4,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "creating spill dir") {
			t.Fatalf("expected the spill error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after a store error")
	}
	if n := mapCalls.Load(); n >= int64(len(blocks)) {
		t.Fatalf("workers kept claiming blocks after the error: %d MapBatch calls for %d blocks", n, len(blocks))
	}
	// Run waits for its workers, so they are gone when it returns; the
	// goroutine that called it exits right after its send.
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before Run, %d after", before, after)
	}
}

// TestMapPhaseIsWorkConserving: every map worker partitions its own chunk,
// so with KernelWorkers 3 three Partition calls are in flight at once
// whatever GOMAXPROCS is — a partition stage sized from the core count
// would cap it below that. The partitioner rendezvouses three callers.
func TestMapPhaseIsWorkConserving(t *testing.T) {
	const workers = 3
	data, want := apps.WCData(11, 64<<10, 500)
	blocks := dfs.SplitLines(data, 8<<10)
	if len(blocks) < 2*workers {
		t.Fatalf("%d blocks, want at least %d", len(blocks), 2*workers)
	}
	var arrived atomic.Int64
	met := make(chan struct{})
	var timedOut atomic.Bool
	part := func(key []byte, n int) int {
		switch a := arrived.Add(1); {
		case a == workers:
			close(met)
		case a < workers:
			select {
			case <-met:
			case <-time.After(10 * time.Second):
				timedOut.Store(true)
			}
		}
		return kv.Partition(key, n)
	}
	res, err := Run(apps.WordCount(), blocks, Config{
		Collector: core.HashTable, KernelWorkers: workers, Partitions: 4, Partitioner: part,
	})
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatalf("fewer than %d Partition calls were ever in flight together", workers)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
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
			Collector:      core.HashTable,
			KernelWorkers:  8,
			Partitions:     32,
			CacheThreshold: 4 << 10,
			SpillDir:       t.TempDir(),
			Compress:       compress,
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

// TestSpillIsOneFilePerPartition: a job that files hundreds of runs over 4
// partitions keeps at most 4 files in its spill directory, and its reduce
// holds one descriptor per partition it is reducing — the process's open
// files grow by at most KernelWorkers while reduce kernels run, whatever
// the run count. Both are sampled from inside the reduce kernel: WordCount
// reduces by folding, and with no combiner Fold runs only in reduce.
func TestSpillIsOneFilePerPartition(t *testing.T) {
	openFiles := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors in")
		}
		return len(ents)
	}
	const parts, workers = 4, 2
	data, want := apps.WCData(14, 512<<10, 3000)
	spillDir := t.TempDir()
	var calls atomic.Int64
	var mostFiles, mostFDs atomic.Int64
	app := apps.WordCount()
	fold := app.Fold
	// One probe at a time: folds run once per pair, on both reducing
	// goroutines at once, and a probe's own descriptors (the directories
	// it lists) must not show in another probe's count.
	var probe sync.Mutex
	app.Fold = func(acc, v []byte) {
		if calls.Add(1)%500 == 1 {
			probe.Lock()
			defer probe.Unlock()
			fds := int64(openFiles())
			files := int64(0)
			if dirs, _ := filepath.Glob(filepath.Join(spillDir, "glasswing-spill-*")); len(dirs) == 1 {
				ents, _ := os.ReadDir(dirs[0])
				files = int64(len(ents))
			}
			for cur := mostFDs.Load(); fds > cur && !mostFDs.CompareAndSwap(cur, fds); cur = mostFDs.Load() {
			}
			for cur := mostFiles.Load(); files > cur && !mostFiles.CompareAndSwap(cur, files); cur = mostFiles.Load() {
			}
		}
		fold(acc, v)
	}
	openFiles()
	before := int64(openFiles())
	res, err := Run(app, dfs.SplitLines(data, 4<<10), Config{
		Collector: core.HashTable, KernelWorkers: workers, Partitions: parts,
		CacheThreshold: 16 << 10, SpillDir: spillDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d runs filed; at most %d spill files and %d descriptors over %d during reduce",
		res.SpillFiles, mostFiles.Load(), mostFDs.Load()-before, before)
	if res.SpillFiles < 200 {
		t.Fatalf("%d runs filed, the test wants at least 200", res.SpillFiles)
	}
	if n := mostFiles.Load(); n == 0 || n > parts {
		t.Fatalf("%d files in the spill directory during reduce, want 1..%d", n, parts)
	}
	if grew := mostFDs.Load() - before; grew > workers {
		t.Fatalf("open files grew by %d during reduce, want at most KernelWorkers = %d", grew, workers)
	}
}
