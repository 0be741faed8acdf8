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
// where the body is a type byte followed by the same uvarint/byte-string
// encoding the wire uses. The journal is written write-ahead: a record is
// durable before the state change it describes is applied or broadcast, so
// replaying a prefix always yields a state the cluster is at or ahead of —
// never behind. Replay is strict: any corruption (bad CRC, truncation,
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

// append frames, writes, and fsyncs one record body. The job fails rather
// than runs unjournaled if the disk write does.
func (j *journal) append(body []byte) error {
	var rec enc
	rec.bytes(body)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	rec.buf = append(rec.buf, crc[:]...)
	if _, err := j.f.Write(rec.buf); err != nil {
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
func blocksDigest(blocks [][]byte) [32]byte {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, b := range blocks {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
		h.Write(b)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func (j *journal) jobStart(job Job, traceID uint64, nTasks int, digest [32]byte) error {
	var e enc
	e.buf = append(e.buf, jrJobStart)
	e.job(job)
	e.i(int64(nTasks))
	e.u(traceID)
	e.bytes(digest[:])
	return j.append(e.buf)
}

// namespace journals the block-store placement inputs. Placement is a pure
// function of (tasks, width, replication), so the record carries the inputs
// rather than the full block→holders map; a resumed coordinator recomputes
// the identical namespace the workers' disks hold.
func (j *journal) namespace(mode string, repl, width int) error {
	var e enc
	e.buf = append(e.buf, jrNamespace)
	e.str(mode)
	e.i(int64(repl))
	e.i(int64(width))
	return j.append(e.buf)
}

func (j *journal) membership(epoch int, homes []int, alive []bool, attempt []int, joined, drained, lost int) error {
	var e enc
	e.buf = append(e.buf, jrMembership)
	e.i(int64(epoch))
	e.ints(homes)
	e.bools(alive)
	e.ints(attempt)
	e.i(int64(joined))
	e.i(int64(drained))
	e.i(int64(lost))
	return j.append(e.buf)
}

func (j *journal) mapDone(task, attempt int, st attemptStats) error {
	var e enc
	e.buf = append(e.buf, jrMapDone)
	e.i(int64(task))
	e.i(int64(attempt))
	e.i(st.RecordsIn)
	e.i(st.PairsOut)
	e.i(st.PartRecords)
	e.i(st.PartRuns)
	e.i(st.PartRaw)
	e.i(st.PartStored)
	return j.append(e.buf)
}

func (j *journal) reduceDone(partition, attempt int, recordsIn, groupsIn int64, output []byte) error {
	var e enc
	e.buf = append(e.buf, jrReduceDone)
	e.i(int64(partition))
	e.i(int64(attempt))
	e.i(recordsIn)
	e.i(groupsIn)
	e.bytes(output)
	return j.append(e.buf)
}

// resumeState is everything a replayed journal reconstructs.
type resumeState struct {
	job     Job
	traceID uint64
	nTasks  int
	digest  [32]byte

	epoch   int
	homes   []int
	alive   []bool
	attempt []int
	joined  int
	drained int
	lost    int

	bsMode  string // block-store mode ("" = off)
	bsRepl  int
	bsWidth int // cluster width the placement was computed at

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
		typ, d := body[0], dec{buf: body[1:]}
		if !sawStart && typ != jrJobStart {
			return refuse("journal does not begin with a job-start record")
		}
		switch typ {
		case jrJobStart:
			if sawStart {
				return refuse("duplicate job-start record")
			}
			sawStart = true
			rs.job = d.job()
			rs.nTasks = int(d.i())
			rs.traceID = d.u()
			dg := d.bytes()
			if err := d.fin("journal job-start"); err != nil {
				return refuse("%v", err)
			}
			if len(dg) != 32 || rs.nTasks < 0 || rs.nTasks > maxFrame ||
				rs.job.Partitions <= 0 || rs.job.Partitions > maxFrame {
				return refuse("implausible job-start record")
			}
			copy(rs.digest[:], dg)
			rs.resolved = make([]bool, rs.nTasks)
			rs.attempt = make([]int, rs.nTasks)
		case jrMembership:
			epoch, homes, alive, attempt := int(d.i()), d.ints(), d.bools(), d.ints()
			joined, drained, lost := int(d.i()), int(d.i()), int(d.i())
			if err := d.fin("journal membership"); err != nil {
				return refuse("%v", err)
			}
			if epoch < 0 || (sawMembership && epoch <= rs.epoch) {
				return refuse("membership epoch regressed (%d after %d)", epoch, rs.epoch)
			}
			if len(homes) != rs.job.Partitions || len(attempt) != rs.nTasks || len(alive) == 0 {
				return refuse("membership record shape mismatch")
			}
			for _, a := range attempt {
				if a < 0 {
					return refuse("negative attempt in membership record")
				}
			}
			for _, h := range homes {
				if h < 0 || h >= len(alive) || !alive[h] {
					return refuse("partition homed on a non-live worker")
				}
			}
			if joined < rs.joined || drained < rs.drained || lost < rs.lost {
				return refuse("membership churn totals regressed")
			}
			sawMembership = true
			rs.epoch, rs.homes, rs.alive, rs.attempt = epoch, homes, alive, attempt
			rs.joined, rs.drained, rs.lost = joined, drained, lost
			// A death re-queues resolved tasks under a bumped attempt (their
			// shuffle output died with the worker). A membership record whose
			// attempt supersedes a task's journaled resolution un-resolves it.
			for t := 0; t < rs.nTasks; t++ {
				if rs.resolved[t] && resolvedAt[t] < rs.attempt[t] {
					rs.resolved[t] = false
				}
			}
		case jrMapDone:
			task, attempt := int(d.i()), int(d.i())
			st := attemptStats{
				RecordsIn: d.i(), PairsOut: d.i(),
				PartRecords: d.i(), PartRuns: d.i(), PartRaw: d.i(), PartStored: d.i(),
			}
			if err := d.fin("journal map-done"); err != nil {
				return refuse("%v", err)
			}
			if task < 0 || task >= rs.nTasks {
				return refuse("map-done for unknown task %d", task)
			}
			if rs.resolved[task] {
				return refuse("duplicate resolution of task %d", task)
			}
			if attempt < rs.attempt[task] {
				return refuse("map-done for task %d at stale attempt %d (current %d)", task, attempt, rs.attempt[task])
			}
			rs.resolved[task] = true
			rs.attempt[task] = attempt
			rs.stats[task] = st
			resolvedAt[task] = attempt
		case jrNamespace:
			mode := d.str()
			repl, width := int(d.i()), int(d.i())
			if err := d.fin("journal namespace"); err != nil {
				return refuse("%v", err)
			}
			if (mode != "local" && mode != "remote") || repl <= 0 || width <= 0 || repl > width {
				return refuse("implausible namespace record")
			}
			if rs.bsMode != "" {
				return refuse("duplicate namespace record")
			}
			rs.bsMode, rs.bsRepl, rs.bsWidth = mode, repl, width
		case jrReduceDone:
			part, attempt := int(d.i()), int(d.i())
			recs, _ := d.i(), d.i() // groupsIn is informational; records feed settlement
			out := append([]byte(nil), d.bytes()...)
			if err := d.fin("journal reduce-done"); err != nil {
				return refuse("%v", err)
			}
			if part < 0 || part >= rs.job.Partitions || attempt < 0 || recs < 0 {
				return refuse("reduce-done for unknown partition %d", part)
			}
			if _, dup := rs.outputs[part]; dup {
				return refuse("duplicate output for partition %d", part)
			}
			rs.outputs[part] = out
			rs.reduceAt[part] = attempt
			rs.records[part] = recs
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
	case rs.job.App.Name != o.Job.App.Name:
		return refuse("journal is for app %q, not %q", rs.job.App.Name, o.Job.App.Name)
	case string(rs.job.App.Params) != string(o.Job.App.Params):
		return refuse("app params differ from the journaled job")
	case rs.job.Partitions != o.Job.Partitions:
		return refuse("journaled %d partitions, options say %d", rs.job.Partitions, o.Job.Partitions)
	case rs.job.Collector != o.Job.Collector ||
		rs.job.UseCombiner != o.Job.UseCombiner ||
		rs.job.Compress != o.Job.Compress ||
		rs.job.MaxAttempts != o.Job.MaxAttempts:
		return refuse("job spec differs from the journaled job")
	case rs.nTasks != len(o.Blocks):
		return refuse("journaled %d input blocks, options carry %d", rs.nTasks, len(o.Blocks))
	case rs.digest != blocksDigest(o.Blocks):
		return refuse("input blocks differ from the journaled job")
	case rs.bsMode != o.Blockstore:
		return refuse("journaled blockstore mode %q, options say %q", rs.bsMode, o.Blockstore)
	}
	return nil
}
