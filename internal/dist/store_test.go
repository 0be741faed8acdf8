package dist

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

func storeRun(t *testing.T, n int) *kv.Run {
	t.Helper()
	pairs := make([]kv.Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = kv.Pair{Key: []byte{byte('a' + i)}, Value: []byte{1}}
	}
	return kv.NewRun(pairs, false)
}

// TestStoreEpochFenceAfterHandoff is the regression test for the
// re-delivery double-commit bug: a run staged at this node by a worker that
// was then drained — its partition handed off to a new home and eventually
// handed *back* — must not commit a second copy on top of the adopted one.
// The per-(task, partition) `have` set alone cannot catch it, because
// takePartition cleared those entries when the partition left; the staged
// run's epoch is the fence.
func TestStoreEpochFenceAfterHandoff(t *testing.T) {
	s := newShuffleStore()
	const part, task = 2, 7

	// Epoch 0: a sender stages task 7's partition 2 here, but its marker is
	// still in flight when the membership transition begins.
	s.stage(task, 0, part, storeRun(t, 3), 0)

	// Epoch 1: the partition is re-homed away (this node hands it off) —
	// nothing committed yet, so the handoff is empty — and epoch 2 hands it
	// back, now carrying the committed copy its interim home accepted.
	s.setEpoch(1)
	s.takePartition(part)
	s.setEpoch(2)
	s.stageHandoff(part, 2, task, storeRun(t, 3))
	if adopted, dupped := s.adoptHandoff(part, 2); adopted != 3 || dupped != 0 {
		t.Fatalf("adopt: accepted %d dupped %d, want 3/0", adopted, dupped)
	}

	// The stale epoch-0 marker finally lands: its staged run must be fenced
	// out as a duplicate, not committed alongside the adopted copy.
	acc, dup := s.commit(task, 0)
	if acc != 0 || dup != 3 {
		t.Fatalf("stale commit: accepted %d dupped %d, want 0/3", acc, dup)
	}
	iters, closeIters, _ := s.partitionIters(part)
	closeIters()
	if runs, records := len(iters), len(kv.Drain(kv.Merge(iters...))); runs != 1 || records != 3 {
		t.Fatalf("partition holds %d runs / %d records, want exactly the adopted one (1/3)", runs, records)
	}
}

// TestStoreHandoffEpochFence mirrors the same fence on the handoff path: a
// handoff staged for an epoch the store has already moved past (the
// transition was overtaken by a death) is dropped, not adopted.
func TestStoreHandoffEpochFence(t *testing.T) {
	s := newShuffleStore()
	s.stageHandoff(4, 1, 0, storeRun(t, 5))
	s.setEpoch(2)
	if adopted, dupped := s.adoptHandoff(4, 1); adopted != 0 || dupped != 5 {
		t.Fatalf("stale handoff: adopted %d dupped %d, want 0/5", adopted, dupped)
	}
	iters, closeIters, _ := s.partitionIters(4)
	closeIters()
	if iters != nil {
		t.Fatal("stale handoff runs became visible to reduce")
	}
}

// TestStoreDedupAcrossAttempts: after a death, a re-executed attempt may
// legitimately add partitions of a task whose other partitions are already
// committed here — per-task dedup would wrongly drop them; per-(task,
// partition) dedup must accept the new partition and drop the repeat.
func TestStoreDedupAcrossAttempts(t *testing.T) {
	s := newShuffleStore()
	s.stage(3, 0, 0, storeRun(t, 2), 0)
	s.commit(3, 0)

	// Attempt 1 (post-death re-execution) re-delivers partition 0 and newly
	// delivers partition 1 (inherited by this node in the re-homing).
	s.stage(3, 1, 0, storeRun(t, 2), 0)
	s.stage(3, 1, 1, storeRun(t, 4), 0)
	acc, dup := s.commit(3, 1)
	if acc != 4 || dup != 2 {
		t.Fatalf("re-execution commit: accepted %d dupped %d, want 4/2", acc, dup)
	}
}

// spillingStore returns a store armed to spill past 1 resident byte into
// dir, with its ledger and a journal that writes into the returned buffer.
func spillingStore(dir string) (*shuffleStore, *ledger, *bytes.Buffer) {
	s := newShuffleStore()
	led := newLedger(nil)
	var journal bytes.Buffer
	s.enableSpill(1, func() (string, error) { return dir, nil }, led, nil,
		slog.New(slog.NewJSONHandler(&journal, nil)))
	return s, led, &journal
}

// TestStoreSpillMovesBytes: spilling a partition files each run on its own
// (task identity survives) in the partition's file, the booked stored size is the file's size and
// sits inside conformance's framing bound, handoff's reload gives back the
// blob that was spilled, and the reduce path streams the file. (The file's
// layout is kv's to assert: TestRunFileRoundTrip.)
func TestStoreSpillMovesBytes(t *testing.T) {
	s, led, _ := spillingStore(t.TempDir())
	run := storeRun(t, 20)
	want := append([]byte(nil), run.Blob()...)
	s.stage(0, 0, 3, run, 0)
	s.commit(0, 0) // 1-byte limit: the commit spills partition 3

	run = s.runs.Runs(3)[0].Run
	if run.Path() == "" || s.runs.Resident() != 0 {
		t.Fatalf("run not spilled: path %q, %d bytes resident", run.Path(), s.runs.Resident())
	}
	st, err := os.Stat(run.Path())
	if err != nil {
		t.Fatal(err)
	}
	if run.StoredBytes() != st.Size() || led.SpillStoredBytes.Value() != st.Size() || led.SpillFiles.Value() != 1 {
		t.Fatalf("stored %d, ledger %d in %d files, file holds %d bytes",
			run.StoredBytes(), led.SpillStoredBytes.Value(), led.SpillFiles.Value(), st.Size())
	}
	if raw := led.SpillRawBytes.Value(); st.Size() < raw || st.Size() > raw+10*led.SpillRecords.Value() {
		t.Fatalf("file size %d outside the framing bound of %d raw bytes", st.Size(), raw)
	}
	back, err := run.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Blob(), want) || back.Records != 20 {
		t.Fatalf("reloaded run differs from the spilled one")
	}
	wantPairs, err := kv.RunFromBlob(want, 20, run.RawBytes, false).Pairs()
	if err != nil {
		t.Fatal(err)
	}
	iters, closeIters, errf := s.partitionIters(3)
	defer closeIters()
	if got := kv.Drain(kv.Merge(iters...)); !bytes.Equal(kv.Marshal(got), kv.Marshal(wantPairs)) || errf() != nil {
		t.Fatalf("streamed spill differs from the spilled run (err %v)", errf())
	}
}

// TestStoreReadBackErrorSurfaces: a spill file that lost its last byte is
// only noticed once the merge has drained it; the store's deferred error
// must report it so runReduce fails the attempt.
func TestStoreReadBackErrorSurfaces(t *testing.T) {
	s, _, _ := spillingStore(t.TempDir())
	s.stage(0, 0, 3, storeRun(t, 20), 0)
	s.commit(0, 0)
	run := s.runs.Runs(3)[0].Run
	if err := os.Truncate(run.Path(), run.StoredBytes()-1); err != nil {
		t.Fatal(err)
	}
	iters, closeIters, errf := s.partitionIters(3)
	defer closeIters()
	got := kv.Drain(kv.Merge(iters...))
	if errf() == nil {
		t.Fatalf("truncated spill file drained to %d pairs with no error", len(got))
	}
}

// TestHandoffOfDamagedSpillFile is the same damage met by a drain instead
// of a reduce: the source's re-homed partition holds two filed runs and one
// has lost its last byte. The readable run is handed off and adopted, the
// damaged run's records are booked lost — never first out and then back —
// and the handoff ledger balances: out == in + dup.
func TestHandoffOfDamagedSpillFile(t *testing.T) {
	store, led, _ := spillingStore(t.TempDir())
	store.stage(0, 0, 3, storeRun(t, 20), 0)
	store.commit(0, 0)
	store.stage(1, 0, 3, storeRun(t, 5), 0)
	store.commit(1, 0)
	damaged := store.runs.Runs(3)[1].Run // the last run in the partition's file
	st, err := os.Stat(damaged.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(damaged.Path(), st.Size()-1); err != nil {
		t.Fatal(err)
	}

	// Source (worker 0) and destination (worker 1) share the ledger, as a
	// loopback cluster does; the frames cross from one to the other in order.
	dst := startedWState(t, 1, []string{"w0", "w1"}, []int{0, 0, 0, 0}, newShuffleStore(), led)
	var done bool
	newHandoff(3, 1, store.takePartition(3)).stream(led, obs.NewTracer(0, nil), 0, func(f frame) {
		ev, _, err := peerEvent(0, f.typ(), f.payload())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range dst.step(ev) {
			done = done || e.op == wfxSend && e.peer == coordPeer && e.f.typ() == mHandoffDone
		}
	})
	if !done {
		t.Fatal("destination reported no handoff-done")
	}

	out, in, dup, lost := led.handoffOut.Value(), led.handoffIn.Value(), led.StoreDupDropped.Value(), led.StoreLost.Value()
	if out != 20 || out != in+dup || lost != 5 {
		t.Fatalf("handoff out %d, in %d, dup %d, store lost %d; want 20 out == in + dup and 5 lost", out, in, dup, lost)
	}
	iters, closeIters, errf := dst.store.partitionIters(3)
	defer closeIters()
	if n := len(kv.Drain(kv.Merge(iters...))); n != 20 || errf() != nil {
		t.Fatalf("adopted partition holds %d pairs, err %v; want 20", n, errf())
	}
}

// TestHandoffOfSharedSpillFile: a re-homed partition's three filed runs
// share its one spill file, and the middle one's section is damaged. The
// two readable runs are handed off and adopted, only the damaged run's
// records book store_lost, and the file is removed once, after the last
// run in it is read.
func TestHandoffOfSharedSpillFile(t *testing.T) {
	store, led, _ := spillingStore(t.TempDir())
	for task, n := range []int{20, 5, 7} {
		store.stage(task, 0, 3, storeRun(t, n), 0)
		store.commit(task, 0)
	}
	runs := store.runs.Runs(3)
	path := runs[0].Run.Path()
	var sum int64
	for _, tr := range runs {
		if tr.Run.Path() != path {
			t.Fatalf("runs filed in %q and %q, want one file", path, tr.Run.Path())
		}
		sum += tr.Run.StoredBytes()
	}
	if st, err := os.Stat(path); err != nil || st.Size() != sum {
		t.Fatalf("%s: %v bytes (err %v), its runs hold %d", path, st.Size(), err, sum)
	}
	// The middle run's section begins right after the first run's: its pair
	// count no longer reads back.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte{0xff, 0xff}, runs[0].Run.StoredBytes())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	dst := startedWState(t, 1, []string{"w0", "w1"}, []int{0, 0, 0, 0}, newShuffleStore(), led)
	var done bool
	newHandoff(3, 1, store.takePartition(3)).stream(led, obs.NewTracer(0, nil), 0, func(f frame) {
		ev, _, err := peerEvent(0, f.typ(), f.payload())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range dst.step(ev) {
			done = done || e.op == wfxSend && e.peer == coordPeer && e.f.typ() == mHandoffDone
		}
	})
	if !done {
		t.Fatal("destination reported no handoff-done")
	}
	out, in, dup, lost := led.handoffOut.Value(), led.handoffIn.Value(), led.StoreDupDropped.Value(), led.StoreLost.Value()
	if out != 27 || out != in+dup || lost != 5 {
		t.Fatalf("handoff out %d, in %d, dup %d, store lost %d; want 27 out == in + dup and 5 lost", out, in, dup, lost)
	}
	iters, closeIters, errf := dst.store.partitionIters(3)
	defer closeIters()
	if n := len(kv.Drain(kv.Merge(iters...))); n != 27 || errf() != nil {
		t.Fatalf("adopted partition holds %d pairs, err %v; want 27", n, errf())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the handed-off partition's spill file is still there (%v)", err)
	}
}

// TestStoreSpillDisarmIsReported: a disk error stops the store spilling —
// the data stays resident and correct — and says so: one ledger count and
// one journal line carrying the error.
func TestStoreSpillDisarmIsReported(t *testing.T) {
	s, led, journal := spillingStore(filepath.Join(t.TempDir(), "missing"))
	s.stage(0, 0, 3, storeRun(t, 20), 0)
	if acc, _ := s.commit(0, 0); acc != 20 {
		t.Fatalf("accepted %d records, want 20", acc)
	}
	s.stage(1, 0, 3, storeRun(t, 5), 0)
	s.commit(1, 0) // disarmed already: must not count or log a second time

	if s.runs.Limit() != 0 || led.spillDisarmed.Value() != 1 || led.SpillFiles.Value() != 0 {
		t.Fatalf("limit %d, disarmed %d, files %d; want 0, 1, 0", s.runs.Limit(), led.spillDisarmed.Value(), led.SpillFiles.Value())
	}
	lines := strings.Split(strings.TrimSpace(journal.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"msg":"spill-disarmed"`) || !strings.Contains(lines[0], "no such file or directory") {
		t.Fatalf("journal: want one spill-disarmed line with the error, got %q", journal.String())
	}
	iters, closeIters, errf := s.partitionIters(3)
	defer closeIters()
	if n := len(kv.Drain(kv.Merge(iters...))); n != 25 || errf() != nil {
		t.Fatalf("resident data after disarm: %d pairs, err %v; want 25", n, errf())
	}
}
