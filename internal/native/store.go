package native

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"glasswing/internal/kv"
)

// storeShard is one partition's slice of the store: its own lock, resident
// and filed run lists, and a resident-byte tally readable without the lock
// (the spill-victim scan reads P atomics instead of walking every run).
type storeShard struct {
	mu    sync.Mutex
	runs  []*kv.Run
	filed []*kv.Run
	bytes atomic.Int64
}

// partitionStore is the native intermediate-data manager: per-partition run
// lists cached in memory, spilled to real temporary files when the
// aggregate cache exceeds the configured threshold (§III-B scaled down to
// one host). The store is sharded per partition — add serializes only
// against writers of the same partition, never the whole store — and all
// methods are safe for concurrent use.
type partitionStore struct {
	cfg Config
	// rec, when set, times spill work and counts spill bytes.
	rec *recorder

	shards      []storeShard
	cachedBytes atomic.Int64 // aggregate across shards
	nspill      atomic.Int64

	dirMu sync.Mutex
	dir   string

	errMu    sync.Mutex
	firstErr error
}

func newPartitionStore(cfg Config) *partitionStore {
	return &partitionStore{
		cfg:    cfg,
		shards: make([]storeShard, cfg.Partitions),
	}
}

func (s *partitionStore) fail(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *partitionStore) err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

// add appends a run to partition g — O(1) under g's shard lock only — then
// spills the fattest partition if the aggregate cache is over threshold.
func (s *partitionStore) add(g int, run *kv.Run) error {
	n := run.StoredBytes()
	sh := &s.shards[g]
	sh.mu.Lock()
	sh.runs = append(sh.runs, run)
	sh.bytes.Add(n)
	sh.mu.Unlock()
	if s.rec != nil {
		s.rec.storeAccepted.Add(int64(run.Records))
	}
	if total := s.cachedBytes.Add(n); s.cfg.CacheThreshold > 0 && total > s.cfg.CacheThreshold {
		return s.spillLargest()
	}
	return nil
}

// spillLargest picks the partition with the largest cached-byte tally (a
// lock-free scan of the per-shard counters), detaches its runs, and files
// them as one run. Concurrent callers may race to the same victim;
// the loser finds it empty and simply returns.
func (s *partitionStore) spillLargest() error {
	big, bigBytes := -1, int64(0)
	for i := range s.shards {
		if b := s.shards[i].bytes.Load(); b > bigBytes {
			big, bigBytes = i, b
		}
	}
	if big < 0 {
		return nil
	}
	sh := &s.shards[big]
	sh.mu.Lock()
	runs := sh.runs
	sh.runs = nil
	var taken int64
	for _, r := range runs {
		taken += r.StoredBytes()
	}
	sh.bytes.Add(-taken)
	sh.mu.Unlock()
	if len(runs) == 0 {
		return nil
	}
	s.cachedBytes.Add(-taken)
	return s.spill(big, runs)
}

// spillDir lazily creates the temporary spill directory.
func (s *partitionStore) spillDir() (string, error) {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	if s.dir == "" {
		dir, err := os.MkdirTemp(s.cfg.SpillDir, "glasswing-spill-")
		if err != nil {
			return "", fmt.Errorf("native: creating spill dir: %w", err)
		}
		s.dir = dir
	}
	return s.dir, nil
}

// spill merges a victim partition's resident runs into one run and files
// it, so a partition has one open file at reduce per spill, not per chunk.
func (s *partitionStore) spill(g int, runs []*kv.Run) error {
	dir, err := s.spillDir()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("part%04d-%06d.run", g, s.nspill.Add(1)))
	end := s.rec.start(stageSpill)
	defer end()

	run := runs[0]
	if len(runs) > 1 {
		run = kv.MergeRuns(runs, s.cfg.Compress)
	}
	if err := run.Spill(path); err != nil {
		return fmt.Errorf("native: %w", err)
	}
	if s.rec != nil {
		s.rec.spillRecords.Add(int64(run.Records))
		s.rec.spillRawBytes.Add(run.RawBytes)
		s.rec.spillBytes.Add(run.StoredBytes())
	}
	sh := &s.shards[g]
	sh.mu.Lock()
	sh.filed = append(sh.filed, run)
	sh.mu.Unlock()
	return nil
}

// iterators returns sorted iterators over all of partition g's data:
// resident runs decode in memory, filed runs stream off disk. The caller
// closes the returned files and, once the merge has drained, checks each
// one's Err — a bad spill file only shows then.
func (s *partitionStore) iterators(g int) ([]kv.Iterator, []*kv.FileIter, error) {
	sh := &s.shards[g]
	sh.mu.Lock()
	runs, filed := sh.runs, sh.filed
	sh.mu.Unlock()
	iters := make([]kv.Iterator, 0, len(runs)+len(filed))
	for _, r := range runs {
		iters = append(iters, r.Iter())
	}
	files := make([]*kv.FileIter, 0, len(filed))
	for _, r := range filed {
		it, err := r.Open()
		if err != nil {
			closeFiles(files)
			return nil, nil, fmt.Errorf("native: %w", err)
		}
		files = append(files, it)
		iters = append(iters, it)
	}
	return iters, files, nil
}

// closeFiles closes the spill files behind a partition's iterators and
// returns the first error any of them hit while streaming.
func closeFiles(files []*kv.FileIter) error {
	var first error
	for _, it := range files {
		it.Close()
		if err := it.Err(); err != nil && first == nil {
			first = fmt.Errorf("native: %w", err)
		}
	}
	return first
}

func (s *partitionStore) spillCount() int {
	return int(s.nspill.Load())
}

// cleanup removes the spill directory.
func (s *partitionStore) cleanup() {
	s.dirMu.Lock()
	dir := s.dir
	s.dirMu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
}
