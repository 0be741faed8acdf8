package dist

import (
	"log/slog"
	"time"

	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// attemptKey identifies one execution of one map task.
type attemptKey struct{ task, attempt int }

// committedRun is a run and the map task that produced it: kv.TaskRun as
// takePartition's caller reads it, and a handed-off run awaiting its mark.
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
// What is committed lives in a kv.RunStore, the run lists and spill policy
// the native runtime uses too; this type keeps what is protocol — staging,
// the dedup set, the epoch fence, handoff — and that is not self-locking:
// callers hold the owning worker's mutex.
type shuffleStore struct {
	epoch   int
	runs    *kv.RunStore                     // committed runs per home partition
	have    map[int]map[int]bool             // task → partitions committed here
	staged  map[attemptKey]map[int]stagedRun // uncommitted shuffle arrivals
	handoff map[int]map[int][]committedRun   // partition → epoch → staged handoff runs

	// Set by enableSpill: where spill files go (the worker's scratch dir,
	// created lazily so jobs that never spill never touch the disk) and who
	// hears about them.
	spillDir func() (string, error)
	spillLed *ledger
	spillTr  *obs.Tracer
	journal  *slog.Logger
}

func newShuffleStore() *shuffleStore {
	s := &shuffleStore{
		have:    make(map[int]map[int]bool),
		staged:  make(map[attemptKey]map[int]stagedRun),
		handoff: make(map[int]map[int][]committedRun),
	}
	// Limit 0: the store never asks for a directory until enableSpill.
	s.runs = kv.NewRunStore(0, func() (string, error) { return s.spillDir() }, s.spilled)
	return s
}

// enableSpill arms the out-of-core path: resident committed runs beyond
// limit bytes are evicted to run files under dir(). led receives the
// conserv_spill_* accounting; tr and journal (both optional) the spill
// spans and the one line written if a disk error disarms spilling.
func (s *shuffleStore) enableSpill(limit int64, dir func() (string, error), led *ledger, tr *obs.Tracer, journal *slog.Logger) {
	s.spillDir = dir
	s.spillLed = led
	s.spillTr = tr
	s.journal = journal
	s.runs.SetLimit(limit)
}

// spilled is the run store's hook: one run was filed, its write begun at t0.
func (s *shuffleStore) spilled(run *kv.Run, t0 time.Time) {
	s.spillLed.Spilled(run)
	if s.spillTr != nil {
		s.spillTr.Record(obs.StageSpill, t0, 0)
	}
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
		s.addCommitted(part, task, sr.run)
		accepted += int64(sr.run.Records)
	}
	return accepted, dupped
}

// addCommitted marks (task, part) as held and commits its run. The reaction
// to a failed spill is the one thing the two runtimes do not share: a disk
// failure here disarms spilling rather than failing the job — the run is
// committed and correct either way, just no longer bounded.
func (s *shuffleStore) addCommitted(part, task int, run *kv.Run) {
	if s.have[task] == nil {
		s.have[task] = make(map[int]bool)
	}
	s.have[task][part] = true
	err := s.runs.Add(part, task, run)
	if err == nil {
		return
	}
	s.runs.SetLimit(0)
	s.spillLed.spillDisarmed.Inc()
	if s.journal != nil {
		s.journal.Warn("spill-disarmed", "partition", part, "resident_bytes", s.runs.Resident(), "error", err.Error())
	}
}

// partitionIters is kv.RunStore.Iters over this node's committed runs.
func (s *shuffleStore) partitionIters(part int) (iters []kv.Iterator, close func(), errf func() error) {
	return s.runs.Iters(part)
}

// takePartition removes a partition this node is handing to a new home,
// clearing its dedup entries, and returns the committed runs (with task
// identity) plus their record count for the handoff-out ledger.
func (s *shuffleStore) takePartition(part int) (runs []committedRun, records int64) {
	for _, tr := range s.runs.Take(part) {
		runs = append(runs, committedRun{task: tr.Task, run: tr.Run})
		records += int64(tr.Run.Records)
		delete(s.have[tr.Task], part)
	}
	return runs, records
}

// stageHandoff records one handed-off run for a re-homed partition; it
// commits when the handoff mark for that partition and epoch arrives.
func (s *shuffleStore) stageHandoff(part, epoch, task int, run *kv.Run) {
	m := s.handoff[part]
	if m == nil {
		m = make(map[int][]committedRun)
		s.handoff[part] = m
	}
	m[epoch] = append(m[epoch], committedRun{task: task, run: run})
}

// adoptHandoff commits a partition's staged handoff runs at their new home.
// Runs staged under an epoch older than the store's (a transition was
// overtaken by a death) and (task, partition) pairs already present are
// dropped. Returns record counts for the ledger: the dropped ones were
// accepted at their old home and are now in no store, so they book lost.
func (s *shuffleStore) adoptHandoff(part, epoch int) (adopted, dupped int64) {
	m := s.handoff[part]
	entries := m[epoch]
	if delete(m, epoch); len(m) == 0 {
		delete(s.handoff, part)
	}
	for _, sh := range entries {
		if epoch < s.epoch || s.have[sh.task][part] {
			dupped += int64(sh.run.Records)
			continue
		}
		s.addCommitted(part, sh.task, sh.run)
		adopted += int64(sh.run.Records)
	}
	return adopted, dupped
}

// dropHandoffs drops every staged handoff, returning its record count:
// accepted at its old home, and now in no store. A job's end drops those
// whose mark never came — a transition a death overtook.
func (s *shuffleStore) dropHandoffs() (lost int64) {
	for _, m := range s.handoff {
		for _, runs := range m {
			for _, cr := range runs {
				lost += int64(cr.run.Records)
			}
		}
	}
	s.handoff = make(map[int]map[int][]committedRun)
	return lost
}

// lostAll empties the store, returning the record count of the committed
// and handed-off runs it held — the data that dies with this worker.
func (s *shuffleStore) lostAll() int64 {
	s.have = make(map[int]map[int]bool)
	s.staged = make(map[attemptKey]map[int]stagedRun)
	return s.dropHandoffs() + s.runs.Drop()
}
