package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"

	"glasswing/internal/kv"
)

// The coordinator checkpoint journal is an append-only file of fsynced
// records; a restarted coordinator replays it and resumes the job instead
// of failing it. Each record is
//
//	[uvarint body length][body][4-byte little-endian CRC32(body)]
//
// where the body is a type byte followed by the record's layout, in the
// wire's codec. The map-done and reduce-done records are the wire payloads
// themselves: the coordinator journals the mapDoneMsg or reduceDoneMsg
// payload it just decoded, and replay decodes it back into the same type.
//
// Records are the only writer of the state they describe (jobState): the
// live coordinator builds a record, journals it, applies it and only then
// broadcasts, and a resumed coordinator applies every journaled record in
// order through the same apply. A record is therefore durable before the
// state it describes exists anywhere, so replaying a prefix always yields a
// state the cluster is at or ahead of — never behind. Replay is strict: any
// corruption (bad CRC, truncation, duplicate resolution, regressed epoch,
// identity mismatch) refuses the resume with a "resume refused" error
// rather than risking a divergent one.

// Journal record types.
const (
	jrJobStart   byte = 1 // job identity: app, tuning-relevant spec, blocks digest, trace id, start time
	jrMembership byte = 2 // epoch, homes, alive set, per-task attempts, churn totals
	jrMapDone    byte = 3 // one task resolved: attempt + winning attempt's stats
	jrReduceDone byte = 4 // one partition's output accepted: attempt + marshaled pairs
	jrNamespace  byte = 5 // block-store namespace: mode, replication, formation width
)

// errResumeRefused prefixes every replay failure.
const resumeRefused = "dist: resume refused"

// journal is the coordinator-side writer. Not self-locking: only the
// coordinator's event loop appends. f is the journal file (tests use an
// in-memory one).
type journal struct {
	f interface {
		Write([]byte) (int, error)
		Sync() error
		Close() error
	}
}

// openJournal opens the journal at path for appending: a fresh job's
// truncates any previous run's file, a resumed one's continues after the
// records it replayed.
func openJournal(path string, resume bool) (*journal, error) {
	flag := os.O_CREATE | os.O_TRUNC | os.O_WRONLY
	if resume {
		flag = os.O_APPEND | os.O_WRONLY
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	return &journal{f: f}, nil
}

// append frames, writes, and fsyncs one record: its type byte, then the
// encoded record. The job fails rather than runs unjournaled if the disk
// write does.
func (j *journal) append(typ byte, record []byte) error {
	body := append([]byte{typ}, record...)
	rec := binary.AppendUvarint(nil, uint64(len(body)))
	rec = append(rec, body...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("dist: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dist: journal sync: %w", err)
	}
	return nil
}

func (j *journal) close() {
	if j != nil && j.f != nil {
		j.f.Close()
	}
}

// blocksDigest fingerprints the job input so a resume against different
// blocks is refused instead of silently recomputing a different answer.
func blocksDigest(blocks [][]byte) []byte {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, b := range blocks {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
		h.Write(b)
	}
	return h.Sum(nil)
}

// jobRecord is the job's identity: the spec, the input's block count and
// digest, and the trace id; and when the job started, which a resumed
// coordinator times the job from.
type jobRecord struct {
	Job     Job
	Tasks   int
	TraceID uint64
	Digest  []byte // blocksDigest of the input; nil for a job with no journal
	Start   int64  // the first coordinator's start, Unix nanoseconds
}

func (r *jobRecord) wire(c *codec) {
	c.job(&r.Job)
	c.i(&r.Tasks)
	c.u(&r.TraceID)
	c.owned(&r.Digest)
	c.i64(&r.Start)
}

// namespaceRecord journals the block-store placement inputs. Placement is a
// pure function of (tasks, width, replication), so the record carries the
// inputs rather than the full block→holders map; a resumed coordinator
// recomputes the identical namespace the workers' disks hold.
type namespaceRecord struct {
	Mode  string // block-store mode ("" = off)
	Repl  int
	Width int // cluster width the placement was computed at
}

func (r *namespaceRecord) wire(c *codec) { c.str(&r.Mode); c.i(&r.Repl); c.i(&r.Width) }

// membershipRecord is one membership epoch: homes, the alive set, per-task
// attempts and the churn totals.
type membershipRecord struct {
	Epoch   int
	Homes   []int
	Alive   []bool
	Attempt []int
	Joined  int
	Drained int
	Lost    int
}

func (r *membershipRecord) wire(c *codec) {
	c.i(&r.Epoch)
	c.ints(&r.Homes)
	c.bools(&r.Alive)
	c.ints(&r.Attempt)
	c.i(&r.Joined)
	c.i(&r.Drained)
	c.i(&r.Lost)
}

// jobState is every fact the journal records: the job's identity and
// block-store namespace, the latest membership epoch, and what each task
// and partition resolved to. apply is the only code that changes it, one
// decoded record at a time. The live coordinator applies a record after
// journaling it and before broadcasting it; a resumed one applies each
// journaled record in order, so a replayed journal rebuilds exactly the
// state its writer had.
type jobState struct {
	jobRecord
	namespaceRecord
	membershipRecord

	started, formed bool // a job-start / membership record has been applied
	// moving is set while the latest membership record started a transition
	// — it moved partitions between live workers — that no later record
	// ended: handed-off runs may still be in flight between workers.
	// draining is that transition's drain target, if it is a drain: the
	// live worker that homed partitions before the record and homes none in
	// it; -1 otherwise.
	moving   bool
	draining int

	resolved      []bool // task → resolved at Attempt[task]
	resolvedCount int
	stats         []attemptStats // task → the stats of the attempt it last resolved at
	done          []bool         // partition → output accepted: the settled set
	doneCount     int
	reduced       []reduceDoneMsg // partition → the reduce-done record that settled it
	// resident[p] is how many committed records still live at holder[p],
	// partition p's home when its output was accepted: a settled partition
	// moves empty, so they stay there. If the holder dies they are settled —
	// consumed by a final output, then lost with the store — not
	// recoverable losses: the coordinator books them so the conservation
	// ledger stays exact, and the membership record announcing the death
	// (or a drain's completion) zeroes them.
	resident []int64
	holder   []int
}

// decodeRecord decodes one journal record. The live coordinator decodes a
// worker's map-done and reduce-done payloads through it too, once, before
// it journals them, so both sides apply the very same values.
func decodeRecord(typ byte, p []byte) (payload, error) {
	switch typ {
	case jrJobStart:
		r := new(jobRecord)
		return r, decode(p, r).fin("job-start")
	case jrNamespace:
		r := new(namespaceRecord)
		return r, decode(p, r).fin("namespace")
	case jrMembership:
		r := new(membershipRecord)
		return r, decode(p, r).fin("membership")
	case jrMapDone:
		r := new(mapDoneMsg)
		return r, decode(p, r).fin("map-done")
	case jrReduceDone:
		r := new(reduceDoneMsg)
		err := decode(p, r).fin("reduce-done")
		if err == nil {
			if r.Pairs, err = kv.Unmarshal(r.Output); err != nil {
				err = fmt.Errorf("dist: partition %d output: %w", r.Partition, err)
			}
		}
		return r, err
	}
	return nil, fmt.Errorf("unknown record type %d", typ)
}

// current reports whether a map-done for (task, attempt) resolves the task:
// the attempt is the one last dispatched and the task is unresolved.
// Reports from superseded attempts are ignored.
func (s *jobState) current(task, attempt int) bool {
	return task >= 0 && task < s.Tasks && attempt == s.Attempt[task] && !s.resolved[task]
}

// apply changes the state by one record, refusing a record no coordinator
// could have written against it. It is the only writer of the state's
// fields but one: dsched.fail bumps a failed task's attempt without a
// record, and replay recovers the bump from the attempt the task's next
// map-done or membership record carries.
func (s *jobState) apply(r payload) error {
	if _, ok := r.(*jobRecord); !ok && !s.started {
		return errors.New("journal does not begin with a job-start record")
	}
	switch r := r.(type) {
	case *jobRecord:
		if s.started {
			return errors.New("duplicate job-start record")
		}
		if (len(r.Digest) != 0 && len(r.Digest) != sha256.Size) || r.Tasks < 0 || r.Tasks > maxFrame ||
			r.Job.Partitions <= 0 || r.Job.Partitions > MaxPartitions {
			return errors.New("implausible job-start record")
		}
		s.jobRecord, s.started = *r, true
		s.Attempt = make([]int, r.Tasks)
		s.resolved = make([]bool, r.Tasks)
		s.stats = make([]attemptStats, r.Tasks)
		s.done = make([]bool, r.Job.Partitions)
		s.reduced = make([]reduceDoneMsg, r.Job.Partitions)
		s.resident = make([]int64, r.Job.Partitions)
		s.holder = make([]int, r.Job.Partitions)
	case *namespaceRecord:
		if (r.Mode != "local" && r.Mode != "remote") || r.Repl <= 0 || r.Width <= 0 || r.Repl > r.Width {
			return errors.New("implausible namespace record")
		}
		if s.Mode != "" {
			return errors.New("duplicate namespace record")
		}
		s.namespaceRecord = *r
	case *membershipRecord:
		if r.Epoch < 0 || (s.formed && r.Epoch <= s.Epoch) {
			return fmt.Errorf("membership epoch regressed (%d after %d)", r.Epoch, s.Epoch)
		}
		if len(r.Homes) != s.Job.Partitions || len(r.Attempt) != s.Tasks || len(r.Alive) == 0 {
			return errors.New("membership record shape mismatch")
		}
		for t, a := range r.Attempt {
			if a < s.Attempt[t] {
				return fmt.Errorf("attempt of task %d regressed (%d after %d)", t, a, s.Attempt[t])
			}
		}
		for _, h := range r.Homes {
			if h < 0 || h >= len(r.Alive) || !r.Alive[h] {
				return errors.New("partition homed on a non-live worker")
			}
		}
		if r.Joined < s.Joined || r.Drained < s.Drained || r.Lost < s.Lost {
			return errors.New("membership churn totals regressed")
		}
		// The one supersede rule: a death re-queues every resolved task under
		// a bumped attempt, because its shuffle output was addressed under the
		// old homes; a bumped attempt un-resolves the task.
		for t, a := range r.Attempt {
			if s.resolved[t] && a > s.Attempt[t] {
				s.resolved[t] = false
				s.resolvedCount--
			}
		}
		for p, h := range s.holder {
			if s.done[p] && (h >= len(r.Alive) || !r.Alive[h]) {
				s.resident[p] = 0 // settled with its dead holder, or gone with a drained one
			}
		}
		s.moving = s.formed && r.Lost == s.Lost && r.Drained == s.Drained && !slices.Equal(r.Homes, s.Homes)
		s.draining = -1
		for _, h := range s.Homes {
			if s.moving && !slices.Contains(r.Homes, h) {
				s.draining = h
			}
		}
		s.membershipRecord, s.formed = *r, true
	case *mapDoneMsg:
		t := r.Task
		switch {
		case t < 0 || t >= s.Tasks:
			return fmt.Errorf("map-done for unknown task %d", t)
		case s.resolved[t]:
			return fmt.Errorf("duplicate resolution of task %d", t)
		case r.Attempt < s.Attempt[t]:
			return fmt.Errorf("map-done for task %d at stale attempt %d (current %d)", t, r.Attempt, s.Attempt[t])
		}
		s.resolved[t] = true
		s.resolvedCount++
		s.Attempt[t] = r.Attempt
		s.stats[t] = r.Stats
	case *reduceDoneMsg:
		p := r.Partition
		if p < 0 || p >= s.Job.Partitions || r.Attempt < 0 || r.RecordsIn < 0 {
			return fmt.Errorf("reduce-done for unknown partition %d", p)
		}
		if s.done[p] {
			return fmt.Errorf("duplicate output for partition %d", p)
		}
		s.done[p] = true
		s.doneCount++
		s.reduced[p] = *r
		s.resident[p], s.holder[p] = r.RecordsIn, s.Homes[p]
	default:
		return fmt.Errorf("no such record %T", r)
	}
	return nil
}

// replayJournal rebuilds the job's state from a journal image by applying
// its records in order. Every anomaly — framing damage, a CRC mismatch, a
// record apply refuses — refuses the resume; replay never guesses.
func replayJournal(data []byte) (*jobState, error) {
	refuse := func(format string, args ...any) (*jobState, error) {
		return nil, fmt.Errorf(resumeRefused+": "+format, args...)
	}
	st := new(jobState)
	rest := data
	for len(rest) > 0 {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n == 0 || n > uint64(len(rest)) {
			return refuse("damaged record length")
		}
		rest = rest[sz:]
		if uint64(len(rest)) < n+4 {
			return refuse("truncated record")
		}
		body := rest[:n]
		want := binary.LittleEndian.Uint32(rest[n : n+4])
		rest = rest[n+4:]
		if crc32.ChecksumIEEE(body) != want {
			return refuse("record checksum mismatch")
		}
		r, err := decodeRecord(body[0], body[1:])
		if err == nil {
			err = st.apply(r)
		}
		if err != nil {
			return refuse("%v", err)
		}
	}
	switch {
	case !st.started:
		return refuse("journal is empty")
	case !st.formed:
		return refuse("journal has no membership record")
	}
	return st, nil
}

// validateResume checks a replayed journal against the options the resumed
// coordinator was started with: the job identity and input must match what
// the journal was written for.
func (s *jobState) validateResume(o *Options) error {
	refuse := func(format string, args ...any) error {
		return fmt.Errorf(resumeRefused+": "+format, args...)
	}
	switch {
	case s.Job.App.Name != o.Job.App.Name:
		return refuse("journal is for app %q, not %q", s.Job.App.Name, o.Job.App.Name)
	case string(s.Job.App.Params) != string(o.Job.App.Params):
		return refuse("app params differ from the journaled job")
	case s.Job.Partitions != o.Job.Partitions:
		return refuse("journaled %d partitions, options say %d", s.Job.Partitions, o.Job.Partitions)
	case s.Job.UseCombiner != o.Job.UseCombiner || s.Job.Compress != o.Job.Compress:
		return refuse("job spec differs from the journaled job")
	case s.Tasks != len(o.Blocks):
		return refuse("journaled %d input blocks, options carry %d", s.Tasks, len(o.Blocks))
	case string(s.Digest) != string(blocksDigest(o.Blocks)):
		return refuse("input blocks differ from the journaled job")
	case s.Mode != o.Blockstore:
		return refuse("journaled blockstore mode %q, options say %q", s.Mode, o.Blockstore)
	}
	return nil
}
