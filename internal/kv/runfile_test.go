package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// runFileCases is the table every run-file test walks: {plain, DEFLATE} ×
// {one pair, many pairs, a value larger than the streaming buffer}.
func runFileCases() map[string][]Pair {
	big := []Pair{
		{Key: []byte("a"), Value: []byte("small")},
		{Key: []byte("b"), Value: bytes.Repeat([]byte("0123456789abcdef"), (readerChunk+4096)/16)},
		{Key: []byte("c"), Value: nil},
	}
	return map[string][]Pair{
		"one":  {{Key: []byte("k"), Value: []byte("v")}},
		"many": randomSorted(rand.New(rand.NewSource(5)), 3000),
		"big":  big,
	}
}

// forEachRunFile calls fn with each case's pairs, its compression, and a
// path for a spill file that does not exist yet.
func forEachRunFile(t *testing.T, fn func(t *testing.T, pairs []Pair, compress bool, path string)) {
	for name, pairs := range runFileCases() {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/deflate=%v", name, compress), func(t *testing.T) {
				fn(t, pairs, compress, filepath.Join(t.TempDir(), "x.run"))
			})
		}
	}
}

// neighbours are the runs filed before and after the run under test: a
// reader that strays out of its section reads one of theirs.
func neighbours(compress bool) (before, after *Run) {
	rng := rand.New(rand.NewSource(8))
	return NewRun(randomSorted(rng, 50), compress), NewRun(randomSorted(rng, 70), compress)
}

// fileRuns files runs end to end in a new file at path, as a store files a
// partition's, and returns the file's size.
func fileRuns(t *testing.T, path string, runs ...*Run) int64 {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var size int64
	for _, r := range runs {
		n := r.StoredBytes()
		if err := r.fileAt(f, size); err != nil {
			t.Fatal(err)
		}
		size += n
	}
	return size
}

// drainFile streams a filed run through one descriptor on its file and
// returns its pairs and deferred error.
func drainFile(t *testing.T, run *Run) ([]Pair, error) {
	t.Helper()
	f, err := os.Open(run.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return drainSection(run, f)
}

func drainSection(run *Run, f io.ReaderAt) ([]Pair, error) {
	it, err := run.Stream(f)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return Drain(it), it.Err()
}

// wantIntact fails unless run streams and reloads to want.
func wantIntact(t *testing.T, run *Run, want []Pair) {
	t.Helper()
	got, err := drainFile(t, run)
	if err != nil || !pairsEqual(got, want) {
		t.Fatalf("streamed %d pairs (err %v), want the run's %d", len(got), err, len(want))
	}
	back, err := run.Load()
	if err != nil {
		t.Fatal(err)
	}
	if pairs, err := back.Pairs(); err != nil || !pairsEqual(pairs, want) {
		t.Fatalf("reloaded %d pairs (err %v), want the run's %d", len(pairs), err, len(want))
	}
}

// TestRunFileRoundTrip: a filed run is its section of the file, the run's
// blob byte for byte between its neighbours'; the run keeps its accounting,
// the file is as long as its runs, streaming yields the run's pairs, and
// Load restores the very blob that was filed.
func TestRunFileRoundTrip(t *testing.T) {
	forEachRunFile(t, func(t *testing.T, pairs []Pair, compress bool, path string) {
		before, after := neighbours(compress)
		run := NewRun(pairs, compress)
		runs := []*Run{before, run, after}
		want := make([][]Pair, len(runs))
		var blob []byte
		var sum int64
		for i, r := range runs {
			want[i], _ = r.Pairs()
			blob = append(blob, r.Blob()...)
			sum += r.StoredBytes()
		}
		records, raw, stored := run.Records, run.RawBytes, run.StoredBytes()
		mine := append([]byte(nil), run.Blob()...)

		if size := fileRuns(t, path, runs...); size != sum {
			t.Fatalf("filing wrote %d bytes, the runs hold %d", size, sum)
		}
		if run.Path() != path || run.Blob() != nil {
			t.Fatalf("run not filed: path %q, %d blob bytes resident", run.Path(), len(run.Blob()))
		}
		if run.Records != records || run.RawBytes != raw || run.StoredBytes() != stored {
			t.Fatalf("accounting changed by filing: %d/%d/%d, want %d/%d/%d",
				run.Records, run.RawBytes, run.StoredBytes(), records, raw, stored)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, blob) {
			t.Fatalf("file holds %d bytes that are not the runs' %d blob bytes end to end", len(onDisk), len(blob))
		}
		for i, r := range runs {
			wantIntact(t, r, want[i])
		}
		if back, _ := run.Load(); !bytes.Equal(back.Blob(), mine) || back.Records != records || back.RawBytes != raw || back.Compressed != compress {
			t.Fatal("reloaded run differs from the filed one")
		}
	})
}

// errShortRead is what shortReaderAt's disk says when it stops.
var errShortRead = errors.New("short read")

// shortReaderAt reads like r below stop and fails past it, returning the
// bytes it had: a disk that delivers part of a read and an error.
type shortReaderAt struct {
	r    io.ReaderAt
	stop int64
}

func (s shortReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) <= s.stop {
		return s.r.ReadAt(p, off)
	}
	n, _ := s.r.ReadAt(p[:max(0, s.stop-off)], off)
	return n, errShortRead
}

// TestRunFileDamageIsAnError: a filed run is damaged three ways — the file
// ends inside its section, its section holds a pair past its last one, a
// read of it comes back short — and each is an error, at Stream or,
// once the pairs before the damage have been delivered, through Err; Load
// refuses the first two. The runs filed beside it read back intact.
func TestRunFileDamageIsAnError(t *testing.T) {
	forEachRunFile(t, func(t *testing.T, pairs []Pair, compress bool, path string) {
		before, after := neighbours(compress)
		wantBefore, _ := before.Pairs()
		wantAfter, _ := after.Pairs()

		t.Run("truncated-inside", func(t *testing.T) {
			b := NewRun(wantBefore, compress)
			run := NewRun(pairs, compress)
			size := fileRuns(t, filepath.Join(t.TempDir(), "x.run"), b, run)
			if err := os.Truncate(run.Path(), size-1); err != nil {
				t.Fatal(err)
			}
			if _, err := run.Load(); err == nil {
				t.Error("Load accepted a section the file ends inside")
			}
			if got, err := drainFile(t, run); err == nil {
				t.Errorf("streaming a cut section delivered %d of %d pairs and no error", len(got), run.Records)
			}
			wantIntact(t, b, wantBefore)
		})

		t.Run("bytes-past-end", func(t *testing.T) {
			blob := append(NewRun(pairs, false).Blob(), frames([]Pair{{Key: []byte("zz"), Value: []byte("past")}})...)
			if compress {
				blob = deflate(blob)
			}
			long := RunFromBlob(blob, len(pairs), 0, compress)
			fileRuns(t, path, before, long, after)
			if _, err := long.Load(); err == nil {
				t.Error("Load accepted a section with a pair past its last")
			}
			if _, err := drainFile(t, long); err == nil {
				t.Error("streaming accepted a section with a pair past its last")
			}
			wantIntact(t, before, wantBefore)
			wantIntact(t, after, wantAfter)
		})

		t.Run("short-read", func(t *testing.T) {
			run := NewRun(pairs, compress)
			fileRuns(t, filepath.Join(t.TempDir(), "x.run"), run)
			f, err := os.Open(run.Path())
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, err := drainSection(run, shortReaderAt{f, run.StoredBytes() / 2})
			if !errors.Is(err, errShortRead) {
				t.Errorf("a read cut short delivered %d of %d pairs, err %v", len(got), run.Records, err)
			}
		})
	})
}

// TestRunFileTruncatedAtPairBoundary: a plain file cut exactly between two
// pairs decodes cleanly to its end, so only the run's record count can tell
// it is short.
func TestRunFileTruncatedAtPairBoundary(t *testing.T) {
	pairs := []Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}
	run := NewRun(pairs, false)
	size := fileRuns(t, filepath.Join(t.TempDir(), "x.run"), run)
	if err := os.Truncate(run.Path(), size-int64(len(frames(pairs[1:])))); err != nil {
		t.Fatal(err)
	}
	got, err := drainFile(t, run)
	if len(got) != 1 || err == nil {
		t.Fatalf("got %d pairs, err %v; want the first pair and an error", len(got), err)
	}
}

// TestCountedFrameDamageIsAnError: a counted frame that counts fewer than
// two pairs, more than its run still owes, or whose count the bytes end
// inside fails the run through Err — resident or filed, plain or DEFLATEd,
// with no panic and no pair past the good frame before it; Load refuses
// the filed run.
func TestCountedFrameDamageIsAnError(t *testing.T) {
	good := []Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("a"), Value: []byte("1")}}
	// frame is the head of a counted frame of key "b" and value "2".
	frame := func(count ...byte) []byte { return append([]byte{1<<1 | 1, 1}, count...) }
	for _, tc := range []struct {
		name    string
		records int
		tail    []byte
	}{
		{"count-0", 3, append(frame(0), 'b', '2')},
		{"count-1", 3, append(frame(1), 'b', '2')},
		{"count-past-owed", 4, append(frame(3), 'b', '2')},
		{"huge-count", 4, append(frame(0xff, 0xff, 0xff, 0xff, 0x7f), 'b', '2')},
		{"count-cut-off", 4, frame()},
		{"count-cut-inside", 4, frame(0x80)},
	} {
		blob := appendRunFrame(binary.AppendUvarint(nil, uint64(tc.records)), good[0].Key, good[0].Value, len(good))
		blob = append(blob, tc.tail...)
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/deflate=%v", tc.name, compress), func(t *testing.T) {
				check := func(where string, got []Pair, err error) {
					t.Helper()
					if err == nil || len(got) > len(good) || !pairsEqual(got, good[:len(got)]) {
						t.Errorf("%s: %d pairs, err %v; want at most the good frame's %d and an error", where, len(got), err, len(good))
					}
				}
				run := sealRun(bytes.Clone(blob), tc.records, 4, compress)
				it := run.Iter()
				got := Drain(it)
				check("resident", got, it.Err())
				m := NewMerger(run.Iter(), NewSliceIter(nil))
				it = m.src[0].it.(*RunIter)
				got = got[:0]
				for _, vals, ok := m.NextGroup(); ok; _, vals, ok = m.NextGroup() {
					for range vals {
						got = append(got, good[0])
					}
				}
				check("resident, by group", got, it.Err())
				fileRuns(t, filepath.Join(t.TempDir(), "x.run"), run)
				got, err := drainFile(t, run)
				check("filed", got, err)
				if _, err := run.Load(); err == nil {
					t.Error("Load accepted the run")
				}
			})
		}
	}
}

// TestRunFileCountStraddlesChunks: a counted frame whose header and count
// straddle the streaming reader's chunks decodes whole at every cut, and a
// filed counted run, plain or DEFLATEd, streams and reloads pair by pair.
func TestRunFileCountStraddlesChunks(t *testing.T) {
	pairs := repeated([]Pair{{Key: []byte("alpha"), Value: []byte("1")}, {Key: []byte("beta"), Value: nil}, {Key: []byte("gamma"), Value: []byte("33")}})
	for range 300 {
		pairs = append(pairs, Pair{Key: []byte("zeta"), Value: []byte("z")})
	}
	run := countedRun(t, pairs, false)
	for chunk := 1; chunk <= len(run.Blob()); chunk++ {
		r := newFrameReader(bytes.NewReader(run.Blob()), chunk, -1)
		if _, err := r.uvarint(); err != nil {
			t.Fatal(err)
		}
		var got []Pair
		for {
			p, n, err := r.read()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%d-byte chunks: %v", chunk, err)
			}
			for range n {
				got = append(got, p)
			}
		}
		if !pairsEqual(got, pairs) {
			t.Fatalf("%d-byte chunks: %d pairs, want %d", chunk, len(got), len(pairs))
		}
	}
	for _, compress := range []bool{false, true} {
		run := countedRun(t, pairs, compress)
		fileRuns(t, filepath.Join(t.TempDir(), "x.run"), run)
		wantIntact(t, run, pairs)
	}
}

// TestRunFileSpillErrorLeavesRunResident: an append that fails leaves the
// file holding the runs filed before it, and the run as it was.
func TestRunFileSpillErrorLeavesRunResident(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.run")
	first := NewRun([]Pair{{Key: []byte("a"), Value: []byte("1")}}, false)
	size := fileRuns(t, path, first)
	f, err := os.Open(path) // read-only: the append fails
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run := NewRun([]Pair{{Key: []byte("k"), Value: []byte("v")}}, false)
	if err := run.fileAt(f, size); err == nil {
		t.Fatal("appending through a read-only descriptor succeeded")
	}
	if run.Path() != "" || len(Drain(run.Iter())) != 1 {
		t.Fatal("failed append changed the run")
	}
	if st, err := os.Stat(path); err != nil || st.Size() != size {
		t.Fatalf("file holds %v bytes after a failed append (err %v), want %d", st.Size(), err, size)
	}
}

// TestRunFileCloseReleasesDescriptor: a store's filed partition costs one
// descriptor while it is read, and none once its iterators are closed: the
// process's open-file count is flat across 1,000 Iters/drain/close cycles.
func TestRunFileCloseReleasesDescriptor(t *testing.T) {
	openFiles := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors in")
		}
		return len(ents)
	}
	dir := t.TempDir()
	s := NewRunStore(1, func() (string, error) { return dir, nil }, nil)
	rng := rand.New(rand.NewSource(6))
	for task := 0; task < 4; task++ {
		if err := s.Add(0, task, NewRun(randomSorted(rng, 20), task%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	before := openFiles()
	for i := 0; i < 1000; i++ {
		iters, closeFiles, errf := s.Iters(0)
		if i == 0 && openFiles() != before+1 {
			t.Fatalf("open files %d → %d with 4 filed runs' iterators open, want one more", before, openFiles())
		}
		if n := len(Drain(iters...)); n != 80 || errf() != nil {
			t.Fatalf("drained %d pairs (err %v), want 80", n, errf())
		}
		closeFiles()
	}
	if after := openFiles(); after != before {
		t.Fatalf("open files %d → %d across 1,000 Iters/close", before, after)
	}
}

// TestRunFileFeedsMerge: filed and resident runs merge together.
func TestRunFileFeedsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := randomSorted(rng, 80), randomSorted(rng, 120)
	filed := NewRun(a, true)
	fileRuns(t, filepath.Join(t.TempDir(), "a.run"), filed)
	f, err := os.Open(filed.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	it, err := filed.Stream(f)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	merged := Drain(it, NewRun(b, false).Iter())
	if it.Err() != nil || len(merged) != len(a)+len(b) || !PairsSorted(merged) {
		t.Fatalf("merged %d pairs (sorted %v, err %v), want %d", len(merged), PairsSorted(merged), it.Err(), len(a)+len(b))
	}
}
