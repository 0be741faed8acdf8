package dist

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"glasswing/internal/kv"
)

// attemptKey identifies one execution of one map task.
type attemptKey struct{ task, attempt int }

// committedRun is one run the store has accepted, tagged with the task that
// produced it so a re-homed partition can be handed to its new owner with
// enough identity for destination-side dedup. Whether its bytes are resident
// or filed (the out-of-core path) is the run's own business.
type committedRun struct {
	task int
	run  *kv.Run
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
	// spillLimit (> 0), the biggest partition's runs are filed (kv.Run.Spill);
	// the reduce path k-way merges resident and filed runs together. The
	// dir provider creates the worker's scratch directory lazily so jobs
	// that never spill never touch the disk.
	spillLimit   int64
	spillDir     func() (string, error)
	spillLed     *ledger
	spillTr      *tracer
	journal      *slog.Logger
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
// limit bytes are evicted to run files under dir(). led, tr and journal (all
// optional) receive the conserv_spill_* accounting, the spill spans, and
// the one line written if a disk error disarms spilling.
func (s *shuffleStore) enableSpill(limit int64, dir func() (string, error), led *ledger, tr *tracer, journal *slog.Logger) {
	s.spillLimit = limit
	s.spillDir = dir
	s.spillLed = led
	s.spillTr = tr
	s.journal = journal
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
		s.addCommitted(part, committedRun{task: task, run: sr.run})
		accepted += int64(sr.run.Records)
	}
	s.maybeSpill()
	return accepted, dupped
}

// addCommitted appends one committed run (always resident on arrival) and
// books its bytes.
func (s *shuffleStore) addCommitted(part int, cr committedRun) {
	s.partitions[part] = append(s.partitions[part], cr)
	s.resident += cr.run.StoredBytes()
	s.residentPart[part] += cr.run.StoredBytes()
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
		if best < 0 {
			return
		}
		if err := s.spillPartition(best); err != nil {
			s.spillLimit = 0
			if s.spillLed != nil {
				s.spillLed.spillDisarmed.Add(1)
			}
			if s.journal != nil {
				s.journal.Warn("spill-disarmed", "partition", best, "resident_bytes", s.resident, "error", err.Error())
			}
			return
		}
	}
}

// spillPartition files every resident run of one partition, one file per
// run: handoff and dedup key on task identity, so runs are never merged.
// On error the runs filed so far stay filed and the rest stay resident.
func (s *shuffleStore) spillPartition(part int) error {
	dir, err := s.spillDir()
	if err != nil {
		return err
	}
	for _, cr := range s.partitions[part] {
		if cr.run.Path() != "" {
			continue
		}
		t0 := time.Now()
		path := filepath.Join(dir, fmt.Sprintf("spill-%06d.run", s.spillSeq))
		s.spillSeq++
		resident := cr.run.StoredBytes()
		if err := cr.run.Spill(path); err != nil {
			return err
		}
		s.resident -= resident
		s.residentPart[part] -= resident
		if s.spillLed != nil {
			s.spillLed.spillRecords.Add(int64(cr.run.Records))
			s.spillLed.spillRawBytes.Add(cr.run.RawBytes)
			s.spillLed.spillStoredBytes.Add(cr.run.StoredBytes())
			s.spillLed.spillFiles.Add(1)
		}
		if s.spillTr != nil {
			s.spillTr.record(stageSpill, t0, time.Now(), 0)
		}
	}
	delete(s.residentPart, part)
	return nil
}

// partitionIters returns one sorted iterator per committed run of part —
// resident runs iterate in memory, filed runs stream off disk. close
// releases the open spill files; err (a file that would not open, or any
// stream that ended early) must be checked after the merge drains.
func (s *shuffleStore) partitionIters(part int) (iters []kv.Iterator, close func(), errf func() error) {
	var files []*kv.FileIter
	var openErr error
	for _, cr := range s.partitions[part] {
		if cr.run.Path() == "" {
			iters = append(iters, cr.run.Iter())
			continue
		}
		it, err := cr.run.Open()
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
	}
	errf = func() error {
		if openErr != nil {
			return openErr
		}
		for _, it := range files {
			if err := it.Err(); err != nil {
				return err
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
		records += int64(cr.run.Records)
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
		s.addCommitted(part, committedRun{task: sh.task, run: sh.run})
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
			lost += int64(cr.run.Records)
			if path := cr.run.Path(); path != "" {
				os.Remove(path)
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
