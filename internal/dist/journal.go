package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
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
// The journal is written write-ahead: a record is durable before the state
// change it describes is applied or broadcast, so replaying a prefix always
// yields a state the cluster is at or ahead of — never behind. Replay is strict: any corruption (bad CRC, truncation,
// duplicate resolution, regressed epoch, identity mismatch) refuses the
// resume with a "resume refused" error rather than risking a divergent one.

// Journal record types.
const (
	jrJobStart   byte = 1 // job identity: app, tuning-relevant spec, blocks digest, trace id
	jrMembership byte = 2 // epoch, homes, alive set, per-task attempts, churn totals
	jrMapDone    byte = 3 // one task resolved: attempt + winning attempt's stats
	jrReduceDone byte = 4 // one partition's output accepted: attempt + marshaled pairs
	jrNamespace  byte = 5 // block-store namespace: mode, replication, formation width
)

// errResumeRefused prefixes every replay failure.
const resumeRefused = "dist: resume refused"

// journal is the coordinator-side writer. Not self-locking: only the
// coordinator's event loop appends.
type journal struct{ f *os.File }

// createJournal opens a fresh journal, truncating any previous run's file.
func createJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	return &journal{f: f}, nil
}

// openJournalAppend reopens an existing journal for continuation records
// after a successful replay.
func openJournalAppend(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
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
// digest, and the trace id.
type jobRecord struct {
	Job     Job
	Tasks   int
	TraceID uint64
	Digest  []byte // blocksDigest of the input
}

func (r *jobRecord) wire(c *codec) {
	c.job(&r.Job)
	c.i(&r.Tasks)
	c.u(&r.TraceID)
	c.owned(&r.Digest)
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

// resumeState is everything a replayed journal reconstructs: its job-start,
// latest membership and namespace records, plus what the map-done and
// reduce-done records resolved.
type resumeState struct {
	jobRecord
	membershipRecord
	namespaceRecord

	resolved []bool
	stats    map[int]attemptStats
	outputs  map[int][]byte // partition → marshaled final pairs
	reduceAt map[int]int    // partition → attempt the output resolved at
	records  map[int]int64  // partition → records the accepted reduce consumed
}

// replayJournal decodes and validates a journal image. Every anomaly —
// framing damage, CRC mismatch, semantic impossibility — refuses the
// resume; replay never guesses.
func replayJournal(data []byte) (*resumeState, error) {
	refuse := func(format string, args ...any) (*resumeState, error) {
		return nil, fmt.Errorf(resumeRefused+": "+format, args...)
	}
	rs := &resumeState{
		stats:    make(map[int]attemptStats),
		outputs:  make(map[int][]byte),
		reduceAt: make(map[int]int),
		records:  make(map[int]int64),
	}
	resolvedAt := make(map[int]int) // task → attempt it was journaled resolved at
	sawStart, sawMembership := false, false
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
		typ, p := body[0], body[1:]
		if !sawStart && typ != jrJobStart {
			return refuse("journal does not begin with a job-start record")
		}
		switch typ {
		case jrJobStart:
			if sawStart {
				return refuse("duplicate job-start record")
			}
			sawStart = true
			if err := decode(p, &rs.jobRecord).fin("journal job-start"); err != nil {
				return refuse("%v", err)
			}
			if len(rs.Digest) != 32 || rs.Tasks < 0 || rs.Tasks > maxFrame ||
				rs.Job.Partitions <= 0 || rs.Job.Partitions > maxFrame {
				return refuse("implausible job-start record")
			}
			rs.resolved = make([]bool, rs.Tasks)
			rs.Attempt = make([]int, rs.Tasks)
		case jrMembership:
			var r membershipRecord
			if err := decode(p, &r).fin("journal membership"); err != nil {
				return refuse("%v", err)
			}
			if r.Epoch < 0 || (sawMembership && r.Epoch <= rs.Epoch) {
				return refuse("membership epoch regressed (%d after %d)", r.Epoch, rs.Epoch)
			}
			if len(r.Homes) != rs.Job.Partitions || len(r.Attempt) != rs.Tasks || len(r.Alive) == 0 {
				return refuse("membership record shape mismatch")
			}
			for _, a := range r.Attempt {
				if a < 0 {
					return refuse("negative attempt in membership record")
				}
			}
			for _, h := range r.Homes {
				if h < 0 || h >= len(r.Alive) || !r.Alive[h] {
					return refuse("partition homed on a non-live worker")
				}
			}
			if r.Joined < rs.Joined || r.Drained < rs.Drained || r.Lost < rs.Lost {
				return refuse("membership churn totals regressed")
			}
			sawMembership = true
			rs.membershipRecord = r
			// A death re-queues resolved tasks under a bumped attempt (their
			// shuffle output died with the worker). A membership record whose
			// attempt supersedes a task's journaled resolution un-resolves it.
			for t := 0; t < rs.Tasks; t++ {
				if rs.resolved[t] && resolvedAt[t] < rs.Attempt[t] {
					rs.resolved[t] = false
				}
			}
		case jrMapDone:
			var m mapDoneMsg
			if err := decode(p, &m).fin("journal map-done"); err != nil {
				return refuse("%v", err)
			}
			if m.Task < 0 || m.Task >= rs.Tasks {
				return refuse("map-done for unknown task %d", m.Task)
			}
			if rs.resolved[m.Task] {
				return refuse("duplicate resolution of task %d", m.Task)
			}
			if m.Attempt < rs.Attempt[m.Task] {
				return refuse("map-done for task %d at stale attempt %d (current %d)", m.Task, m.Attempt, rs.Attempt[m.Task])
			}
			rs.resolved[m.Task] = true
			rs.Attempt[m.Task] = m.Attempt
			rs.stats[m.Task] = m.Stats
			resolvedAt[m.Task] = m.Attempt
		case jrNamespace:
			var r namespaceRecord
			if err := decode(p, &r).fin("journal namespace"); err != nil {
				return refuse("%v", err)
			}
			if (r.Mode != "local" && r.Mode != "remote") || r.Repl <= 0 || r.Width <= 0 || r.Repl > r.Width {
				return refuse("implausible namespace record")
			}
			if rs.Mode != "" {
				return refuse("duplicate namespace record")
			}
			rs.namespaceRecord = r
		case jrReduceDone:
			var m reduceDoneMsg // GroupsIn is informational; RecordsIn feeds settlement
			if err := decode(p, &m).fin("journal reduce-done"); err != nil {
				return refuse("%v", err)
			}
			if m.Partition < 0 || m.Partition >= rs.Job.Partitions || m.Attempt < 0 || m.RecordsIn < 0 {
				return refuse("reduce-done for unknown partition %d", m.Partition)
			}
			if _, dup := rs.outputs[m.Partition]; dup {
				return refuse("duplicate output for partition %d", m.Partition)
			}
			rs.outputs[m.Partition] = append([]byte(nil), m.Output...)
			rs.reduceAt[m.Partition] = m.Attempt
			rs.records[m.Partition] = m.RecordsIn
		default:
			return refuse("unknown record type %d", typ)
		}
	}
	if !sawStart {
		return refuse("journal is empty")
	}
	if !sawMembership {
		return refuse("journal has no membership record")
	}
	return rs, nil
}

// validateResume checks a replayed journal against the options the resumed
// coordinator was started with: the job identity and input must match what
// the journal was written for.
func (rs *resumeState) validateResume(o *Options) error {
	refuse := func(format string, args ...any) error {
		return fmt.Errorf(resumeRefused+": "+format, args...)
	}
	switch {
	case rs.Job.App.Name != o.Job.App.Name:
		return refuse("journal is for app %q, not %q", rs.Job.App.Name, o.Job.App.Name)
	case string(rs.Job.App.Params) != string(o.Job.App.Params):
		return refuse("app params differ from the journaled job")
	case rs.Job.Partitions != o.Job.Partitions:
		return refuse("journaled %d partitions, options say %d", rs.Job.Partitions, o.Job.Partitions)
	case rs.Job.Collector != o.Job.Collector ||
		rs.Job.UseCombiner != o.Job.UseCombiner ||
		rs.Job.Compress != o.Job.Compress ||
		rs.Job.MaxAttempts != o.Job.MaxAttempts:
		return refuse("job spec differs from the journaled job")
	case rs.Tasks != len(o.Blocks):
		return refuse("journaled %d input blocks, options carry %d", rs.Tasks, len(o.Blocks))
	case string(rs.Digest) != string(blocksDigest(o.Blocks)):
		return refuse("input blocks differ from the journaled job")
	case rs.Mode != o.Blockstore:
		return refuse("journaled blockstore mode %q, options say %q", rs.Mode, o.Blockstore)
	}
	return nil
}
