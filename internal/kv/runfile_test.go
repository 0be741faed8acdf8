package kv

import (
	"bytes"
	"fmt"
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

func forEachRunFile(t *testing.T, fn func(t *testing.T, run *Run, path string)) {
	for name, pairs := range runFileCases() {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/deflate=%v", name, compress), func(t *testing.T) {
				fn(t, NewRun(pairs, compress), filepath.Join(t.TempDir(), "x.run"))
			})
		}
	}
}

// drainFile streams a filed run and returns its pairs and deferred error.
func drainFile(t *testing.T, run *Run) ([]Pair, error) {
	t.Helper()
	it, err := run.Open()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return Drain(it), it.Err()
}

// TestRunFileRoundTrip: the file is the run's blob byte for byte, the run
// keeps its accounting, streaming yields the run's pairs, and Load restores
// the very blob that was spilled.
func TestRunFileRoundTrip(t *testing.T) {
	forEachRunFile(t, func(t *testing.T, run *Run, path string) {
		want, err := run.Pairs()
		if err != nil {
			t.Fatal(err)
		}
		blob := append([]byte(nil), run.Blob()...)
		records, raw, stored := run.Records, run.RawBytes, run.StoredBytes()

		if err := run.Spill(path); err != nil {
			t.Fatal(err)
		}
		if run.Path() != path || run.Blob() != nil {
			t.Fatalf("run not filed: path %q, %d blob bytes resident", run.Path(), len(run.Blob()))
		}
		if run.Records != records || run.RawBytes != raw || run.StoredBytes() != stored {
			t.Fatalf("accounting changed by Spill: %d/%d/%d, want %d/%d/%d",
				run.Records, run.RawBytes, run.StoredBytes(), records, raw, stored)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, blob) {
			t.Fatalf("file holds %d bytes that are not the run's %d-byte blob", len(onDisk), len(blob))
		}

		got, err := drainFile(t, run)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(want, got) {
			t.Fatalf("streamed %d pairs, want the run's %d", len(got), len(want))
		}
		back, err := run.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Blob(), blob) || back.Records != records || back.RawBytes != raw || back.Compressed != run.Compressed {
			t.Fatal("reloaded run differs from the spilled one")
		}
	})
}

// TestRunFileDamageIsAnError: a file one byte short or one byte long fails
// Load's size check, and fails streaming too — at Open or, once the pairs
// before the damage have been delivered, through Err.
func TestRunFileDamageIsAnError(t *testing.T) {
	forEachRunFile(t, func(t *testing.T, run *Run, path string) {
		records := run.Records
		if err := run.Spill(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, run.StoredBytes()-1); err != nil {
			t.Fatal(err)
		}
		if _, err := run.Load(); err == nil {
			t.Error("Load accepted a truncated file")
		}
		if got, err := drainFile(t, run); err == nil {
			t.Errorf("streaming a truncated file delivered %d of %d pairs and no error", len(got), records)
		}

		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0, 0})
		f.Close()
		if _, err := run.Load(); err == nil {
			t.Error("Load accepted a file one byte too long")
		}
		if _, err := drainFile(t, run); err == nil {
			t.Error("streaming accepted a file with bytes past its last pair")
		}
	})
}

// TestRunFileTruncatedAtPairBoundary: a plain file cut exactly between two
// pairs decodes cleanly to its end, so only the run's record count can tell
// it is short.
func TestRunFileTruncatedAtPairBoundary(t *testing.T) {
	pairs := []Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}
	run := NewRun(pairs, false)
	path := filepath.Join(t.TempDir(), "x.run")
	if err := run.Spill(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, run.StoredBytes()-int64(len(frames(pairs[1:])))); err != nil {
		t.Fatal(err)
	}
	got, err := drainFile(t, run)
	if len(got) != 1 || err == nil {
		t.Fatalf("got %d pairs, err %v; want the first pair and an error", len(got), err)
	}
}

// TestRunFileSpillErrorLeavesRunResident: a failed Spill leaves nothing on
// disk and the run as it was.
func TestRunFileSpillErrorLeavesRunResident(t *testing.T) {
	run := NewRun([]Pair{{Key: []byte("k"), Value: []byte("v")}}, false)
	path := filepath.Join(t.TempDir(), "missing", "x.run")
	if err := run.Spill(path); err == nil {
		t.Fatal("Spill into a missing directory succeeded")
	}
	if run.Path() != "" || len(Drain(run.Iter())) != 1 {
		t.Fatal("failed Spill changed the run")
	}
}

// TestRunFileCloseReleasesDescriptor: the process's open-file count is flat
// across 1,000 open/drain/close cycles.
func TestRunFileCloseReleasesDescriptor(t *testing.T) {
	openFiles := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors in")
		}
		return len(ents)
	}
	run := NewRun(randomSorted(rand.New(rand.NewSource(6)), 20), true)
	if err := run.Spill(filepath.Join(t.TempDir(), "x.run")); err != nil {
		t.Fatal(err)
	}
	before := openFiles()
	for i := 0; i < 1000; i++ {
		if _, err := drainFile(t, run); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFiles(); after != before {
		t.Fatalf("open files %d → %d across 1,000 open/close", before, after)
	}
}

// TestRunFileFeedsMerge: filed and resident runs merge together.
func TestRunFileFeedsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := randomSorted(rng, 80), randomSorted(rng, 120)
	filed := NewRun(a, true)
	if err := filed.Spill(filepath.Join(t.TempDir(), "a.run")); err != nil {
		t.Fatal(err)
	}
	it, err := filed.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	merged := Drain(Merge(it, NewRun(b, false).Iter()))
	if it.Err() != nil || len(merged) != len(a)+len(b) || !PairsSorted(merged) {
		t.Fatalf("merged %d pairs (sorted %v, err %v), want %d", len(merged), PairsSorted(merged), it.Err(), len(a)+len(b))
	}
}
