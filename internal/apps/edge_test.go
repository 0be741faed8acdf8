package apps

import (
	"bytes"
	"strings"
	"testing"

	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/kv"
	"glasswing/internal/native"
	"glasswing/internal/workload"
)

// countWords tokenizes exactly like the WC kernel (lines split on '\n',
// words split on ' ' and '\t') so each edge case carries its own reference.
func countWords(data []byte) map[string]uint64 {
	want := make(map[string]uint64)
	for _, line := range bytes.Split(data, []byte("\n")) {
		for _, w := range bytes.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' }) {
			want[string(w)]++
		}
	}
	return want
}

// TestWordCountEdgeCases drives WC through the native pipeline on degenerate
// and adversarial inputs: the shapes most likely to break chunking, the
// collector, or the spill path, and least likely to appear in the sized
// random datasets the benchmarks use.
func TestWordCountEdgeCases(t *testing.T) {
	giantWord := strings.Repeat("x", 64<<10) // one key bigger than the whole spill threshold
	cases := []struct {
		name string
		data string
		// blockSize 0 means one block holding all data (single chunk).
		blockSize int64
		cfg       native.Config
		wantSpill bool
	}{
		{name: "empty-input", data: ""},
		{name: "whitespace-only", data: "  \t \n \t\t \n\n   \n"},
		{name: "single-chunk", data: "to be or not to be that is the question\n"},
		{
			name:      "one-word-many-chunks",
			data:      strings.Repeat("lonely\n", 5000),
			blockSize: 2 << 10,
		},
		{
			name:      "all-identical-keys-combiner",
			data:      strings.Repeat("same same same same\n", 4000),
			blockSize: 4 << 10,
			cfg:       native.Config{Collector: core.HashTable, UseCombiner: true},
		},
		{
			name:      "key-larger-than-spill-threshold",
			data:      strings.Repeat(giantWord+" tiny\n", 8),
			blockSize: 80 << 10,
			cfg:       native.Config{CacheThreshold: 4 << 10},
			wantSpill: true,
		},
		{
			name: "non-ascii-text",
			data: "héllo wörld héllo\n日本語 テキスト 日本語\nnaïve café naïve\n nbsp-is-part-of-a-word\n",
		},
		{
			name:      "no-trailing-newline",
			data:      "alpha beta gamma",
			blockSize: 4,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			data := []byte(tc.data)
			var blocks [][]byte
			if tc.blockSize > 0 {
				blocks = dfs.SplitLines(data, tc.blockSize)
			} else if len(data) > 0 {
				blocks = [][]byte{data}
			}
			cfg := tc.cfg
			cfg.KernelWorkers = 4
			cfg.Partitions = 3
			if cfg.CacheThreshold > 0 {
				cfg.SpillDir = t.TempDir()
			}
			res, err := native.Run(WordCount(), blocks, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := countWords(data)
			if err := VerifyCounts(res.Output(), want); err != nil {
				t.Fatal(err)
			}
			if tc.wantSpill && res.SpillFiles == 0 {
				t.Fatal("expected the giant-key case to spill, but no spill files were written")
			}
		})
	}
}

// TestNativeWorkerCountStability asserts the worker-count property the
// conformance matrix samples, directly at the native API: the same job run
// with 1 vs 8 map workers must produce pairwise-identical output —
// parallelism is pure execution geometry.
func TestNativeWorkerCountStability(t *testing.T) {
	data, want := WCData(11, 48<<10, 900)
	blocks := dfs.SplitLines(data, 6<<10)
	run := func(kw int) []kv.Pair {
		res, err := native.Run(WordCount(), blocks, native.Config{
			KernelWorkers: kw,
			Partitions:    5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Output()
	}
	serial := run(1)
	if err := VerifyCounts(serial, want); err != nil {
		t.Fatal(err)
	}
	wide := run(8)
	if len(serial) != len(wide) {
		t.Fatalf("output size changed with worker count: %d vs %d pairs", len(serial), len(wide))
	}
	for i := range serial {
		if !bytes.Equal(serial[i].Key, wide[i].Key) || !bytes.Equal(serial[i].Value, wide[i].Value) {
			t.Fatalf("output pair %d differs between 1-worker and 8-worker runs", i)
		}
	}
}

// TestTeraSortEdgeCases covers the reduce-less path on degenerate record
// sets: empty input, a single record, and all-identical keys (every record
// lands in one partition and value-order tie-breaking decides the output).
func TestTeraSortEdgeCases(t *testing.T) {
	one := TSData(7, 1)
	dup := bytes.Repeat(one, 64) // 64 records, identical keys and values
	cases := []struct {
		name string
		data []byte
	}{
		{name: "empty-input", data: nil},
		{name: "single-record", data: one},
		{name: "all-identical-keys", data: dup},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var blocks [][]byte
			if len(tc.data) > 0 {
				blocks = dfs.SplitFixed(tc.data, 512, workload.TeraRecordSize)
			}
			res, err := native.Run(TeraSort(), blocks, native.Config{
				KernelWorkers: 2,
				Partitions:    4,
				Collector:     core.BufferPool,
				Partitioner:   TeraPartitioner(tc.data, 4),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyTeraSort(res.Output(), tc.data); err != nil {
				t.Fatal(err)
			}
		})
	}
}
