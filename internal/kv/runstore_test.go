package kv

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

// The store's add → spill → streamed read-back lifecycle, its accounting
// and its behaviour under concurrent adds are tested where a runtime builds
// it: internal/native's store tests and FuzzSpillMerge, internal/dist's
// TestStore*. The cases here are the ones neither runtime reaches.

func storeTestRun(task, n int) *Run { return NewRun(storeTestPairs(task, n), false) }

// storeTestPairs is n sorted pairs of task's.
func storeTestPairs(task, n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Key: []byte(fmt.Sprintf("t%02d-%04d", task, i)), Value: []byte("v")}
	}
	return pairs
}

// drainStore merges every partition's iterators and counts how often each
// key comes back.
func drainStore(t *testing.T, s *RunStore, parts int) map[string]int {
	t.Helper()
	seen := make(map[string]int)
	for p := 0; p < parts; p++ {
		iters, closeFiles, errf := s.Iters(p)
		for _, pair := range Drain(iters...) {
			seen[string(pair.Key)]++
		}
		closeFiles()
		if err := errf(); err != nil {
			t.Fatalf("partition %d read-back: %v", p, err)
		}
	}
	return seen
}

// TestRunStoreSpillFailsHalfWay: a spill that fails part of the way leaves
// the runs it had filed filed and the rest resident, cuts the partition's
// file back to the runs filed in it, returns the error from Add, and loses
// or repeats nothing — the caller may fail the job or stop spilling and
// carry on, and either is correct. Tasks alternate between partitions 0
// and 1; the limit holds two runs, so the third Add files partition 0's two
// and the fifth partition 1's two.
func TestRunStoreSpillFailsHalfWay(t *testing.T) {
	errDisk := errors.New("disk gone")
	runBytes := storeTestRun(0, 10).StoredBytes()
	for _, tc := range []struct {
		name      string
		breakDisk func(t *testing.T, calls int) error // what the dir provider does on call number calls
		wantFiled int
		wantErr   error // nil: whatever the failed write says
	}{
		// The second partition to be filed finds no directory.
		{name: "dir-errors-on-second-call", wantFiled: 2, wantErr: errDisk, breakDisk: func(t *testing.T, calls int) error {
			if calls == 2 {
				return errDisk
			}
			return nil
		}},
		// The second run appended to the first partition's file is cut
		// short: the process may write files no longer than a run and a
		// half.
		{name: "write-fails-mid-partition", wantFiled: 1, breakDisk: func(t *testing.T, calls int) error {
			limitFileSize(t, runBytes+runBytes/2)
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			calls, spilled := 0, 0
			s := NewRunStore(2*runBytes+1, func() (string, error) {
				calls++
				return dir, tc.breakDisk(t, calls)
			}, func(run *Run, t0 time.Time) {
				if run.Path() == "" || t0.After(time.Now()) {
					t.Errorf("hook saw run at %q, begun %v", run.Path(), t0)
				}
				spilled++
			})
			var firstErr error
			added := 0
			for task := 0; task < 6 && firstErr == nil; task++ {
				firstErr = s.Add(task%2, task, storeTestRun(task, 10))
				added += 10
			}
			if firstErr == nil {
				t.Fatal("Add never returned the spill error")
			}
			if tc.wantErr != nil && !errors.Is(firstErr, tc.wantErr) {
				t.Fatalf("Add returned %v, want %v", firstErr, tc.wantErr)
			}
			var filed int
			var resident int64
			fileBytes := make(map[string]int64)
			for p := 0; p < 2; p++ {
				for _, tr := range s.Runs(p) {
					if path := tr.Run.Path(); path != "" {
						filed++
						fileBytes[path] += tr.Run.StoredBytes()
					} else {
						resident += tr.Run.StoredBytes()
					}
				}
			}
			if filed != tc.wantFiled || spilled != filed || s.Resident() != resident {
				t.Fatalf("%d runs filed (want %d), hook called %d times, %d bytes booked resident, %d are",
					filed, tc.wantFiled, spilled, s.Resident(), resident)
			}
			for path, n := range fileBytes {
				if st, err := os.Stat(path); err != nil || st.Size() != n {
					t.Fatalf("%s: %v bytes (err %v), its filed runs hold %d", path, st.Size(), err, n)
				}
			}
			seen := drainStore(t, s, 2)
			if len(seen) != added {
				t.Fatalf("%d distinct keys read back, %d added", len(seen), added)
			}
			for k, n := range seen {
				if n != 1 {
					t.Fatalf("key %q read back %d times", k, n)
				}
			}
			// The caller that carries on: no limit, no further spill, no error.
			s.SetLimit(0)
			if err := s.Add(2, 9, storeTestRun(9, 10)); err != nil || len(drainStore(t, s, 3)) != added+10 {
				t.Fatalf("after SetLimit(0): err %v, %d keys", err, len(drainStore(t, s, 3)))
			}
		})
	}
}

// TestRunStoreTakeAndDrop: Take hands a partition over as it is — filed
// runs still filed, their one file now the caller's — and its resident bytes
// stop counting against the limit; Drop removes what is left, files and
// all, and says how many records went.
func TestRunStoreTakeAndDrop(t *testing.T) {
	dir := t.TempDir()
	s := NewRunStore(1<<20, func() (string, error) { return dir, nil }, nil)
	for task := 0; task < 2; task++ {
		if err := s.Add(0, task, storeTestRun(task, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Squeeze partition 0 out to disk, then let partitions 0 and 1 each
	// take a resident run.
	s.SetLimit(1)
	if err := s.Add(0, 2, storeTestRun(2, 10)); err != nil {
		t.Fatal(err)
	}
	s.SetLimit(1 << 20)
	if err := s.Add(0, 3, storeTestRun(3, 10)); err != nil {
		t.Fatal(err)
	}
	other := storeTestRun(4, 5)
	if err := s.Add(1, 4, other); err != nil {
		t.Fatal(err)
	}

	taken := s.Take(0)
	if len(taken) != 4 {
		t.Fatalf("took %d runs, want 4", len(taken))
	}
	for i, tr := range taken {
		if tr.Task != i {
			t.Fatalf("run %d carries task %d", i, tr.Task)
		}
		if filed := tr.Run.Path() != ""; filed != (i < 3) || filed && tr.Run.Path() != taken[0].Run.Path() {
			t.Fatalf("run %d: path %q, want the partition's one file for the first three", i, tr.Run.Path())
		}
	}
	if got := s.Resident(); got != other.StoredBytes() {
		t.Fatalf("%d bytes resident after Take, want partition 1's %d", got, other.StoredBytes())
	}
	if iters, closeFiles, _ := s.Iters(0); len(iters) != 0 {
		closeFiles()
		t.Fatalf("partition 0 still has %d runs", len(iters))
	}

	s.SetLimit(1)
	if err := s.Add(1, 5, storeTestRun(5, 5)); err != nil { // files partition 1
		t.Fatal(err)
	}
	mine := s.Runs(1)[0].Run.Path()
	if lost := s.Drop(); lost != 10 {
		t.Fatalf("Drop reported %d records, want 10", lost)
	}
	if _, err := os.Stat(mine); !os.IsNotExist(err) {
		t.Fatalf("Drop left %s behind (%v)", mine, err)
	}
	if _, err := os.Stat(taken[0].Run.Path()); err != nil {
		t.Fatalf("Drop removed a file Take had handed over: %v", err)
	}
	if s.Resident() != 0 || len(s.Runs(1)) != 0 {
		t.Fatalf("store not empty after Drop: %d bytes, %d runs", s.Resident(), len(s.Runs(1)))
	}
}

// TestRunStoreItersReportsDamagedRun: a committed resident run whose bytes
// do not decode ends its iterator early, and errf says so — a reduce over
// a peer's damaged run fails instead of returning short output.
func TestRunStoreItersReportsDamagedRun(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		s := NewRunStore(0, nil, nil)
		s.Add(0, 0, storeTestRun(0, 20))
		good := NewRun([]Pair{{Key: []byte("k"), Value: []byte("v")}}, compressed)
		blob := good.Blob()
		s.Add(0, 1, RunFromBlob(blob[:len(blob)-1], good.Records, good.RawBytes, compressed))
		iters, closeFiles, errf := s.Iters(0)
		Drain(iters...)
		closeFiles()
		if errf() == nil {
			t.Fatalf("compressed=%v: a damaged run merged without an error", compressed)
		}
	}
}

// TestDrainIsSizedExactly: a reduce-less partition's output is allocated
// once, at the pairs its runs owe, whether the runs are resident, filed or
// both, plain or compressed.
func TestDrainIsSizedExactly(t *testing.T) {
	dir := t.TempDir()
	for _, compress := range []bool{false, true} {
		for _, tc := range []struct {
			name  string
			filed int // the first tasks' runs, filed as they are added
		}{{"resident", 0}, {"filed", 4}, {"mixed", 2}} {
			s := NewRunStore(1, func() (string, error) { return dir, nil }, nil)
			want := 0
			for task := 0; task < 4; task++ {
				if task == tc.filed {
					s.SetLimit(0)
				}
				pairs := storeTestPairs(task, 50+task)
				want += len(pairs)
				if err := s.Add(0, task, NewRun(pairs, compress)); err != nil {
					t.Fatal(err)
				}
			}
			filed := 0
			for _, tr := range s.Runs(0) {
				if tr.Run.Path() != "" {
					filed++
				}
			}
			iters, closeFiles, errf := s.Iters(0)
			out := Drain(iters...)
			closeFiles()
			if err := errf(); err != nil || filed != tc.filed || len(out) != want || !PairsSorted(out) {
				t.Fatalf("compress=%v, %s: %d of %d pairs (sorted %v, %d runs filed, err %v)",
					compress, tc.name, len(out), want, PairsSorted(out), filed, err)
			}
			if cap(out) != len(out) {
				t.Errorf("compress=%v, %s: %d pairs in a slice of %d", compress, tc.name, len(out), cap(out))
			}
			s.Drop()
		}
	}
}
