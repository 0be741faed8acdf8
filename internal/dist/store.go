package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"glasswing/internal/kv"
)

// attemptKey identifies one execution of one map task.
type attemptKey struct{ task, attempt int }

// committedRun is one run the store has accepted, tagged with the task that
// produced it so a re-homed partition can be handed to its new owner with
// enough identity for destination-side dedup. A run is either resident
// (run != nil) or spilled to a sorted on-disk stream file (file != "") —
// the out-of-core path; records/rawBytes are kept here so accounting never
// needs the evicted blob back.
type committedRun struct {
	task     int
	run      *kv.Run
	file     string
	records  int
	rawBytes int64
	stored   int64 // encoded bytes: blob size resident, stream size spilled
}

// load returns the run, reading a spilled one back off disk (handoff is
// the one consumer that needs a whole run again): the file is the run's
// blob minus its record count, so prepending the count restores it.
func (cr *committedRun) load() (*kv.Run, error) {
	if cr.run != nil {
		return cr.run, nil
	}
	stream, err := os.ReadFile(cr.file)
	if err != nil {
		return nil, fmt.Errorf("dist: reloading spilled run: %w", err)
	}
	if int64(len(stream)) != cr.stored {
		return nil, fmt.Errorf("dist: reloading spilled run: %s holds %d bytes, want %d", cr.file, len(stream), cr.stored)
	}
	blob := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(stream)), uint64(cr.records))
	return kv.RunFromBlob(append(blob, stream...), cr.records, cr.rawBytes, false), nil
}

// stagedRun is one uncommitted arrival plus the membership epoch the sender
// routed under. Commit rejects runs staged under an epoch older than the
// store's: after a partition is re-homed away and back (drain A→B, later
// B→A), a late delivery addressed under the old epoch must not commit on
// top of the handed-off copy — the per-(task, partition) `have` set was
// cleared when the partition left, so the epoch is the only thing standing
// between that stale run and a double commit.
type stagedRun struct {
	run   *kv.Run
	epoch int
}

// shuffleStore is a worker's intermediate-data cache: runs pushed to this
// node because it is home to their partition, the paper's destination-side
// partition cache (§III-B). Runs arrive staged per (task, attempt) and
// become visible to reduce only when the sender's end-of-attempt marker
// commits them — the FIFO connection guarantees every run precedes its
// marker, so a commit is always complete for the partitions this node
// was home to when the sender partitioned.
//
// Deduplication is per (task, partition, epoch): per (task, partition)
// rather than per task because after a worker death re-homes partitions, a
// re-executed attempt must be able to add the newly-inherited partitions of
// a task whose other partitions this node already holds (map output is
// deterministic per task, so accepting partition p from one attempt and
// partition q from another composes correctly); and epoch-fenced because a
// membership transition that moves a partition away clears this node's
// `have` entries for it, which would otherwise let a stale pre-transition
// delivery commit alongside the handed-off copy at the partition's next
// home. Duplicates and stale-epoch runs are dropped and accounted.
//
// Not self-locking: callers hold the owning worker's mutex.
type shuffleStore struct {
	epoch      int
	partitions map[int][]committedRun            // committed runs per home partition
	have       map[int]map[int]bool              // task → partitions committed here
	staged     map[attemptKey]map[int]stagedRun  // uncommitted shuffle arrivals
	handoff    map[int]map[int][]stagedHandoff   // partition → epoch → staged handoff runs

	// Out-of-core spill state: once resident committed bytes exceed
	// spillLimit (> 0), the biggest partition's runs are evicted to sorted
	// on-disk stream files; the reduce path k-way merges resident and
	// spilled runs together. The dir provider creates the worker's scratch
	// directory lazily so jobs that never spill never touch the disk.
	spillLimit   int64
	spillDir     func() (string, error)
	spillLed     *ledger
	spillTr      *tracer
	spillSeq     int
	resident     int64
	residentPart map[int]int64
}

// stagedHandoff is one handed-off committed run awaiting its handoff mark.
type stagedHandoff struct {
	task int
	run  *kv.Run
}

func newShuffleStore() *shuffleStore {
	return &shuffleStore{
		partitions:   make(map[int][]committedRun),
		have:         make(map[int]map[int]bool),
		staged:       make(map[attemptKey]map[int]stagedRun),
		handoff:      make(map[int]map[int][]stagedHandoff),
		residentPart: make(map[int]int64),
	}
}

// enableSpill arms the out-of-core path: resident committed runs beyond
// limit bytes are evicted to stream files under dir(). led and tr (both
// optional) receive the conserv_spill_* accounting and spill spans.
func (s *shuffleStore) enableSpill(limit int64, dir func() (string, error), led *ledger, tr *tracer) {
	s.spillLimit = limit
	s.spillDir = dir
	s.spillLed = led
	s.spillTr = tr
}

// setEpoch advances the store's membership epoch; staged runs from older
// epochs become duplicates at commit time. Epochs never move backwards.
func (s *shuffleStore) setEpoch(e int) {
	if e > s.epoch {
		s.epoch = e
	}
}

// stage records one partition's run for an in-flight attempt.
func (s *shuffleStore) stage(task, attempt, part int, run *kv.Run, epoch int) {
	k := attemptKey{task, attempt}
	m := s.staged[k]
	if m == nil {
		m = make(map[int]stagedRun)
		s.staged[k] = m
	}
	m[part] = stagedRun{run: run, epoch: epoch}
}

// commit publishes an attempt's staged runs, partition by partition:
// partitions this node has not seen for the task are accepted; the rest —
// re-execution duplicates and runs staged under a pre-transition epoch —
// are dropped. Returns record counts for the conservation ledger.
func (s *shuffleStore) commit(task, attempt int) (accepted, dupped int64) {
	k := attemptKey{task, attempt}
	m := s.staged[k]
	delete(s.staged, k)
	for part, sr := range m {
		if sr.epoch < s.epoch || s.have[task][part] {
			dupped += int64(sr.run.Records)
			continue
		}
		if s.have[task] == nil {
			s.have[task] = make(map[int]bool)
		}
		s.have[task][part] = true
		s.addCommitted(part, committedRun{
			task: task, run: sr.run,
			records: sr.run.Records, rawBytes: sr.run.RawBytes, stored: sr.run.StoredBytes(),
		})
		accepted += int64(sr.run.Records)
	}
	s.maybeSpill()
	return accepted, dupped
}

// addCommitted appends one committed run and books its resident bytes.
func (s *shuffleStore) addCommitted(part int, cr committedRun) {
	s.partitions[part] = append(s.partitions[part], cr)
	if cr.run != nil {
		s.resident += cr.stored
		s.residentPart[part] += cr.stored
	}
}

// maybeSpill evicts whole partitions — largest resident first — until the
// store is back under its limit. A disk failure disarms spilling rather
// than failing the job: the data is still resident and correct, just no
// longer bounded.
func (s *shuffleStore) maybeSpill() {
	for s.spillLimit > 0 && s.resident > s.spillLimit {
		best, bestBytes := -1, int64(0)
		for p, b := range s.residentPart {
			if b > bestBytes {
				best, bestBytes = p, b
			}
		}
		if best < 0 || !s.spillPartition(best) {
			return
		}
	}
}

// spillPartition evicts every resident run of one partition to sorted
// on-disk stream files. Reports whether any bytes moved.
func (s *shuffleStore) spillPartition(part int) bool {
	dir, err := s.spillDir()
	if err != nil {
		s.spillLimit = 0
		return false
	}
	crs := s.partitions[part]
	moved := false
	for i := range crs {
		cr := &crs[i]
		if cr.run == nil {
			continue
		}
		t0 := time.Now()
		path := filepath.Join(dir, fmt.Sprintf("spill-%06d.run", s.spillSeq))
		s.spillSeq++
		// Every run in the store is uncompressed, and the kv stream format
		// is the Marshal layout without its leading count: the blob past
		// that varint is the file, byte for byte.
		blob := cr.run.Blob()
		_, n := binary.Uvarint(blob)
		if n <= 0 || os.WriteFile(path, blob[n:], 0o666) != nil {
			os.Remove(path)
			s.spillLimit = 0
			return moved
		}
		stored := int64(len(blob) - n)
		s.resident -= cr.stored
		s.residentPart[part] -= cr.stored
		if s.spillLed != nil {
			s.spillLed.spillRecords.Add(int64(cr.records))
			s.spillLed.spillRawBytes.Add(cr.rawBytes)
			s.spillLed.spillStoredBytes.Add(stored)
			s.spillLed.spillFiles.Add(1)
		}
		if s.spillTr != nil {
			s.spillTr.record(stageSpill, t0, time.Now(), 0)
		}
		cr.run, cr.file, cr.stored = nil, path, stored
		moved = true
	}
	if s.residentPart[part] <= 0 {
		delete(s.residentPart, part)
	}
	return moved
}

// spillFileIter streams a spilled run back for the reduce merge, surfacing
// stream errors through the Iterator's exhaustion plus the err method.
type spillFileIter struct {
	f  *os.File
	it *kv.StreamIter
}

func (si *spillFileIter) Next() (kv.Pair, bool) { return si.it.Next() }

// partitionIters returns one sorted iterator per committed run of part —
// resident runs iterate in memory, spilled runs stream off disk. close
// releases the open spill files; err (from any iterator's underlying
// stream) must be checked after the merge drains.
func (s *shuffleStore) partitionIters(part int) (iters []kv.Iterator, close func(), errf func() error) {
	crs := s.partitions[part]
	var files []*spillFileIter
	var openErr error
	for i := range crs {
		cr := &crs[i]
		if cr.run != nil {
			iters = append(iters, cr.run.Iter())
			continue
		}
		f, err := os.Open(cr.file)
		if err != nil {
			openErr = fmt.Errorf("dist: opening spilled run: %w", err)
			continue
		}
		si := &spillFileIter{f: f, it: kv.NewStreamIter(kv.NewReader(bufio.NewReaderSize(f, 64<<10)))}
		files = append(files, si)
		iters = append(iters, si)
	}
	close = func() {
		for _, si := range files {
			si.f.Close()
		}
	}
	errf = func() error {
		if openErr != nil {
			return openErr
		}
		for _, si := range files {
			if err := si.it.Err(); err != nil {
				return fmt.Errorf("dist: streaming spilled run: %w", err)
			}
		}
		return nil
	}
	return iters, close, errf
}

// takePartition removes a partition this node is handing to a new home,
// clearing its dedup entries, and returns the committed runs (with task
// identity) plus their record count for the handoff-out ledger.
func (s *shuffleStore) takePartition(part int) (runs []committedRun, records int64) {
	runs = s.partitions[part]
	delete(s.partitions, part)
	s.resident -= s.residentPart[part]
	delete(s.residentPart, part)
	for _, cr := range runs {
		records += int64(cr.records)
		delete(s.have[cr.task], part)
	}
	return runs, records
}

// stageHandoff records one handed-off run for a re-homed partition; it
// commits when the handoff mark for that partition and epoch arrives.
func (s *shuffleStore) stageHandoff(part, epoch, task int, run *kv.Run) {
	m := s.handoff[part]
	if m == nil {
		m = make(map[int][]stagedHandoff)
		s.handoff[part] = m
	}
	m[epoch] = append(m[epoch], stagedHandoff{task: task, run: run})
}

// adoptHandoff commits a partition's staged handoff runs at their new home.
// Runs staged under an epoch older than the store's (a transition was
// overtaken by a death) and (task, partition) pairs already present are
// dropped as duplicates. Returns record counts for the ledger.
func (s *shuffleStore) adoptHandoff(part, epoch int) (adopted, dupped int64) {
	m := s.handoff[part]
	entries := m[epoch]
	delete(s.handoff, part)
	for _, sh := range entries {
		if epoch < s.epoch || s.have[sh.task][part] {
			dupped += int64(sh.run.Records)
			continue
		}
		if s.have[sh.task] == nil {
			s.have[sh.task] = make(map[int]bool)
		}
		s.have[sh.task][part] = true
		s.addCommitted(part, committedRun{
			task: sh.task, run: sh.run,
			records: sh.run.Records, rawBytes: sh.run.RawBytes, stored: sh.run.StoredBytes(),
		})
		adopted += int64(sh.run.Records)
	}
	s.maybeSpill()
	return adopted, dupped
}

// lostAll empties the store, returning the committed record count — the
// data that dies with this worker.
func (s *shuffleStore) lostAll() int64 {
	var lost int64
	for _, crs := range s.partitions {
		for _, cr := range crs {
			lost += int64(cr.records)
			if cr.file != "" {
				os.Remove(cr.file)
			}
		}
	}
	s.partitions = make(map[int][]committedRun)
	s.have = make(map[int]map[int]bool)
	s.staged = make(map[attemptKey]map[int]stagedRun)
	s.handoff = make(map[int]map[int][]stagedHandoff)
	s.resident = 0
	s.residentPart = make(map[int]int64)
	return lost
}
