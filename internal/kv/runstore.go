package kv

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// TaskRun is a committed run and the map task that produced it — the
// identity a re-homed partition's runs are deduplicated by at their new home.
type TaskRun struct {
	Task int
	Run  *Run
}

// RunStore is the intermediate-data manager of both real runtimes (§III-B
// scaled to one process): per-partition lists of committed runs, cached in
// memory and filed once the resident bytes exceed a limit. While over it,
// every resident run of the fattest partition is filed: appended, as it
// is, to that partition's one spill file, made at its first spill. A run
// is never merged before it is written, so its task tag survives and a
// spill costs a write, not a merge; a partition costs one file and, while
// it is read, one descriptor, however many runs it files. Reduce k-way
// merges resident and filed runs alike. Safe for concurrent use.
type RunStore struct {
	mu       sync.Mutex
	limit    int64 // resident-byte bound; 0 = never spill
	dir      func() (string, error)
	onSpill  func(run *Run, t0 time.Time)
	parts    map[int][]TaskRun
	files    map[int]*spillFile // each spilled partition's file
	resident map[int]int64      // resident bytes per partition
	total    int64              // sum of resident
	seq      int                // next spill file number
}

// spillFile is one partition's spill file: its filed runs lie end to end,
// size bytes in all.
type spillFile struct {
	path string
	size int64
}

// NewRunStore returns an empty store that spills past limit resident bytes
// (0 = never). dir is asked for the spill directory each time a partition's
// file is made, so a lazy provider leaves the disk untouched by jobs that
// never spill. onSpill, if set, is told of every run filed and
// when its write began: the owner books its counters and spans there. Both
// run under the store's lock and must not call back into it.
func NewRunStore(limit int64, dir func() (string, error), onSpill func(run *Run, t0 time.Time)) *RunStore {
	return &RunStore{
		limit:    limit,
		dir:      dir,
		onSpill:  onSpill,
		parts:    make(map[int][]TaskRun),
		files:    make(map[int]*spillFile),
		resident: make(map[int]int64),
	}
}

// SetLimit changes the resident-byte bound from the next Add on; 0 = never.
func (s *RunStore) SetLimit(limit int64) {
	s.mu.Lock()
	s.limit = limit
	s.mu.Unlock()
}

// Limit reports the resident-byte bound.
func (s *RunStore) Limit() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limit
}

// Resident reports the bytes of committed runs held in memory.
func (s *RunStore) Resident() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Runs returns partition part's committed runs in commit order.
func (s *RunStore) Runs(part int) []TaskRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TaskRun(nil), s.parts[part]...)
}

// Add commits task's run to partition part, then spills until the store is
// back under its limit. The run is committed whatever Add returns: after a
// spill error every record added so far is still iterable exactly once —
// runs filed before the failure stay filed, the rest stay resident — so the
// caller chooses the reaction (fail the job, or SetLimit(0) and carry on).
func (s *RunStore) Add(part, task int, run *Run) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parts[part] = append(s.parts[part], TaskRun{Task: task, Run: run})
	n := run.StoredBytes()
	s.resident[part] += n
	s.total += n
	for s.limit > 0 && s.total > s.limit {
		// The fattest partition, lowest number on a tie so the choice
		// does not depend on map order. total > 0, so there is one.
		fat, fatBytes := -1, int64(0)
		for p, b := range s.resident {
			if b > fatBytes || (b == fatBytes && p < fat) {
				fat, fatBytes = p, b
			}
		}
		if err := s.spillPartition(fat); err != nil {
			return err
		}
	}
	return nil
}

// spillPartition appends every resident run of one partition to its spill
// file, making the file first if this is the partition's first spill. A
// failed append leaves the file as it was before it and the run resident.
func (s *RunStore) spillPartition(part int) error {
	sf := s.files[part]
	flag := os.O_WRONLY
	if sf == nil {
		dir, err := s.dir()
		if err != nil {
			return err
		}
		sf = &spillFile{path: filepath.Join(dir, fmt.Sprintf("spill-%06d.run", s.seq))}
		s.seq++
		flag |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(sf.path, flag, 0o666)
	if err != nil {
		return fmt.Errorf("kv: opening spill file: %w", err)
	}
	s.files[part] = sf
	err = s.fileResident(part, f, sf)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("kv: closing spill file: %w", cerr)
	}
	return err
}

// fileResident appends partition part's resident runs to f, its spill file.
func (s *RunStore) fileResident(part int, f *os.File, sf *spillFile) error {
	for _, tr := range s.parts[part] {
		if tr.Run.Path() != "" {
			continue
		}
		t0 := time.Now()
		n := tr.Run.StoredBytes()
		if err := tr.Run.fileAt(f, sf.size); err != nil {
			return err
		}
		sf.size += n
		s.resident[part] -= n
		s.total -= n
		if s.onSpill != nil {
			s.onSpill(tr.Run, t0)
		}
	}
	delete(s.resident, part)
	return nil
}

// Iters returns one sorted iterator per committed run of part — resident
// runs iterate in memory, filed runs stream off disk, every one of them
// through one descriptor on the partition's file. close releases it; errf
// (a file that would not open, a stream that ended early, a run whose bytes
// do not decode) must be checked after the merge drains, not before.
func (s *RunStore) Iters(part int) (iters []Iterator, close func(), errf func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var f *os.File
	var files []*FileIter
	var openErr error
	if sf := s.files[part]; sf != nil {
		if f, openErr = os.Open(sf.path); openErr != nil {
			openErr = fmt.Errorf("kv: opening spill file: %w", openErr)
		}
	}
	for _, tr := range s.parts[part] {
		if tr.Run.Path() == "" {
			iters = append(iters, tr.Run.Iter())
			continue
		}
		if f == nil {
			continue
		}
		it, err := tr.Run.Stream(f)
		if err != nil {
			openErr = err
			continue
		}
		files = append(files, it)
		iters = append(iters, it)
	}
	close = func() {
		for _, it := range files {
			it.Close()
		}
		if f != nil {
			f.Close()
		}
	}
	errf = func() error {
		if openErr != nil {
			return openErr
		}
		for _, it := range iters { // a *RunIter or a *FileIter
			if err := it.(interface{ Err() error }).Err(); err != nil {
				return err
			}
		}
		return nil
	}
	return iters, close, errf
}

// Take removes partition part from the store and returns its runs, filed
// ones still filed (Path set): the caller now owns them and the partition's
// file, which all of them share. A later spill of part makes a new file.
func (s *RunStore) Take(part int) []TaskRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := s.parts[part]
	delete(s.parts, part)
	delete(s.files, part)
	s.total -= s.resident[part]
	delete(s.resident, part)
	return runs
}

// Drop empties the store, removing the spill files of the partitions it
// still holds, and returns the number of records that went with them.
func (s *RunStore) Drop() (records int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, runs := range s.parts {
		for _, tr := range runs {
			records += int64(tr.Run.Records)
		}
	}
	for _, sf := range s.files {
		os.Remove(sf.path)
	}
	s.parts = make(map[int][]TaskRun)
	s.files = make(map[int]*spillFile)
	s.resident = make(map[int]int64)
	s.total = 0
	return records
}
