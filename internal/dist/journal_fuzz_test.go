package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// corpusSeeds builds the journal images the fuzz corpus starts from: a
// healthy journal plus the damage classes replay must refuse — truncation,
// bit flips, duplicated records, regressed epochs. The same set is checked
// in under testdata/fuzz/FuzzJournalReplay so CI's fuzz-smoke always covers
// them even with -fuzztime 0 (seed-only mode).
func corpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, build func(j *journal)) []byte {
		path := filepath.Join(dir, name)
		j, err := openJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		build(j)
		j.close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	job := Job{App: AppSpec{Name: "wc"}, Partitions: 3}
	digest := blocksDigest([][]byte{[]byte("block zero"), []byte("block one")})
	jobStart := func(j *journal) {
		j.append(jrJobStart, encode(&jobRecord{Job: job, Tasks: 2, TraceID: 42, Digest: digest, Start: 1_700_000_000_000_000_000}))
	}
	membership := func(j *journal, epoch int, homes []int, alive []bool, attempt []int, lost int) {
		j.append(jrMembership, encode(&membershipRecord{Epoch: epoch, Homes: homes, Alive: alive, Attempt: attempt, Lost: lost}))
	}
	mapDone := func(j *journal, task, attempt int, st attemptStats) {
		j.append(jrMapDone, encode(&mapDoneMsg{Task: task, Attempt: attempt, Stats: st}))
	}
	healthy := write("healthy", func(j *journal) {
		jobStart(j)
		membership(j, 0, []int{0, 1, 0}, []bool{true, true}, []int{0, 0}, 0)
		mapDone(j, 0, 0, attemptStats{RecordsIn: 10, PairsOut: 20})
		mapDone(j, 1, 0, attemptStats{RecordsIn: 5, PairsOut: 9})
		j.append(jrReduceDone, encode(&reduceDoneMsg{Partition: 1, RecordsIn: 12, GroupsIn: 7}))
	})
	churn := write("churn", func(j *journal) {
		jobStart(j)
		membership(j, 0, []int{0, 1, 0}, []bool{true, true}, []int{0, 0}, 0)
		mapDone(j, 0, 0, attemptStats{PairsOut: 20})
		// A death bumps attempts: task 0's resolution is superseded.
		membership(j, 1, []int{0, 0, 0}, []bool{true, false}, []int{1, 1}, 1)
		mapDone(j, 0, 1, attemptStats{PairsOut: 20})
		mapDone(j, 1, 1, attemptStats{PairsOut: 9})
	})

	seeds := map[string][]byte{
		"healthy": healthy,
		"churn":   churn,
		"empty":   nil,
	}
	// Truncations at several depths. The fixed offsets fall, in this
	// journal, mid job-start record (35), just after the fourth record's
	// length prefix (92) and on the fourth record's end, a clean prefix
	// (105); the proportional ones cut mid-record and mid-CRC.
	for _, cut := range []int{1, 35, 92, 105, len(healthy) / 3, len(healthy) - 2, len(healthy) - 15} {
		if cut > 0 && cut < len(healthy) {
			seeds[fmt.Sprintf("trunc-%d", cut)] = healthy[:cut]
		}
	}
	// Garble one byte in the middle (CRC must catch it).
	garbled := append([]byte(nil), healthy...)
	garbled[len(garbled)/2] ^= 0x40
	seeds["garbled"] = garbled
	// Duplicate the tail record wholesale.
	dup := write("dup", func(j *journal) {
		jobStart(j)
		membership(j, 0, []int{0, 1, 0}, []bool{true, true}, []int{0, 0}, 0)
		mapDone(j, 0, 0, attemptStats{})
		mapDone(j, 0, 0, attemptStats{}) // duplicate resolution
	})
	seeds["dup-resolution"] = dup
	regressed := write("regressed", func(j *journal) {
		jobStart(j)
		membership(j, 5, []int{0, 1, 0}, []bool{true, true}, []int{0, 0}, 0)
		membership(j, 3, []int{0, 1, 0}, []bool{true, true}, []int{0, 0}, 0) // epoch went backwards
	})
	seeds["epoch-regressed"] = regressed
	seeds["no-membership"] = write("nomem", func(j *journal) {
		jobStart(j)
	})
	return seeds
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus. Guarded by an
// env var so normal runs never touch testdata; run with
//
//	GLASSWING_WRITE_CORPUS=1 go test ./internal/dist -run TestWriteFuzzCorpus
//
// after changing the journal format, and commit the result.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("GLASSWING_WRITE_CORPUS") == "" {
		t.Skip("set GLASSWING_WRITE_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpusSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzJournalReplay asserts the resume gate's core promise: an arbitrary
// journal image either replays to a coherent, deterministic state or is
// cleanly refused with a "resume refused" error — never a panic, never a
// divergent resume.
func FuzzJournalReplay(f *testing.F) {
	for _, data := range corpusSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := replayJournal(data)
		rs2, err2 := replayJournal(data)
		// Determinism: the same image must replay identically every time —
		// a coordinator that resumes twice from one journal may not diverge.
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("non-deterministic replay: %v vs %v", err, err2)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), resumeRefused) {
				t.Fatalf("refusal without the resume-refused prefix: %v", err)
			}
			return
		}
		if !reflect.DeepEqual(rs, rs2) {
			t.Fatal("non-deterministic replay state")
		}
		// Coherence of an accepted state.
		if rs.Epoch < 0 {
			t.Fatalf("accepted negative epoch %d", rs.Epoch)
		}
		if len(rs.Homes) != rs.Job.Partitions || len(rs.Alive) == 0 {
			t.Fatalf("accepted malformed membership: %d homes, %d alive", len(rs.Homes), len(rs.Alive))
		}
		for p, h := range rs.Homes {
			if h < 0 || h >= len(rs.Alive) || !rs.Alive[h] {
				t.Fatalf("partition %d homed on non-live worker %d", p, h)
			}
		}
		if len(rs.resolved) != rs.Tasks || len(rs.Attempt) != rs.Tasks || len(rs.stats) != rs.Tasks {
			t.Fatalf("task arrays sized %d/%d/%d for %d tasks", len(rs.resolved), len(rs.Attempt), len(rs.stats), rs.Tasks)
		}
		resolved := 0
		for t2, a := range rs.Attempt {
			if a < 0 {
				t.Fatalf("task %d accepted at negative attempt %d", t2, a)
			}
			if rs.resolved[t2] {
				resolved++
			}
		}
		if resolved != rs.resolvedCount {
			t.Fatalf("%d tasks resolved, count says %d", resolved, rs.resolvedCount)
		}
		P := rs.Job.Partitions
		if len(rs.done) != P || len(rs.reduced) != P || len(rs.resident) != P {
			t.Fatalf("partition arrays sized %d/%d/%d for %d partitions", len(rs.done), len(rs.reduced), len(rs.resident), P)
		}
		done := 0
		for p, d := range rs.done {
			switch {
			case d && rs.reduced[p].Partition != p:
				t.Fatalf("output for partition %d recorded as partition %d", p, rs.reduced[p].Partition)
			case d && rs.reduced[p].Attempt < 0:
				t.Fatalf("output for partition %d at negative attempt %d", p, rs.reduced[p].Attempt)
			case !d && (rs.resident[p] != 0 || rs.reduced[p].Pairs != nil):
				t.Fatalf("partition %d holds an output it never accepted", p)
			case rs.resident[p] < 0:
				t.Fatalf("partition %d has %d resident records", p, rs.resident[p])
			}
			if d {
				done++
			}
		}
		if done != rs.doneCount {
			t.Fatalf("%d partitions done, count says %d", done, rs.doneCount)
		}
	})
}
