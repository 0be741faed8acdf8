// Package apps implements the five MapReduce applications of the paper's
// evaluation (§IV): Pageview Count (PVC), WordCount (WC) and TeraSort (TS)
// as the I/O-bound set, K-Means clustering (KM) and Matrix Multiply (MM) as
// the compute-bound set. Each application provides the OpenCL-style kernels
// (as a core.App shared by all three engines), a deterministic dataset
// builder, and a verifier that checks engine output against an independent
// reference implementation.
package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"glasswing/internal/kv"
)

// u32 encodes a little-endian uint32 (the count encoding all counting apps
// share; SequenceFile-style binary rather than text, as the paper's Hadoop
// ports use).
func u32(n uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], n)
	return b[:]
}

func decodeU32(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("apps: bad u32 length %d", len(b))
	}
	return binary.LittleEndian.Uint32(b), nil
}

// oneU32 is the shared count literal every counting app emits. It is
// read-only by contract: kernels hand it to a kv.Sink, which copies it.
var oneU32 = u32(1)

// sumCounts is the count-summing kernel the counting apps use as both
// combiner and reducer: the total is encoded into stack scratch and copied
// into the output slab, so a reduction over a million keys allocates
// nothing per key.
func sumCounts(key []byte, values [][]byte, out *kv.Batch) {
	var total uint32
	for _, v := range values {
		n, err := decodeU32(v)
		if err != nil {
			panic(err)
		}
		total += n
	}
	var enc [4]byte
	binary.LittleEndian.PutUint32(enc[:], total)
	out.AppendKV(key, enc[:])
}

// addU32 is sumCounts as a fold: it adds one encoded count into a 4-byte
// accumulator, wrapping as sumCounts' total does.
func addU32(acc, v []byte) {
	n, err := decodeU32(v)
	if err != nil {
		panic(err)
	}
	binary.LittleEndian.PutUint32(acc, binary.LittleEndian.Uint32(acc)+n)
}

// parseLines splits a text block into one record per non-empty line. The
// record slice is sized once from the newline count (an upper bound, exact
// when no line is empty), so parsing allocates once per block.
func parseLines(block []byte) []kv.Pair {
	recs := make([]kv.Pair, 0, bytes.Count(block, newline)+1)
	for len(block) > 0 {
		var line []byte
		line, block, _ = bytes.Cut(block, newline)
		if len(line) > 0 {
			recs = append(recs, kv.Pair{Value: line})
		}
	}
	return recs
}

var newline = []byte{'\n'}

// parseFixed splits a block into fixed-size records.
func parseFixed(size int) func(block []byte) []kv.Pair {
	return func(block []byte) []kv.Pair {
		n := len(block) / size
		recs := make([]kv.Pair, 0, n)
		for i := 0; i < n; i++ {
			recs = append(recs, kv.Pair{Value: block[i*size : (i+1)*size]})
		}
		return recs
	}
}

// CountsFromOutput folds (key, u32) output pairs into a map, summing
// duplicates (partial counts from different partitions).
func CountsFromOutput(pairs []kv.Pair) (map[string]uint64, error) {
	out := make(map[string]uint64)
	for _, pr := range pairs {
		n, err := decodeU32(pr.Value)
		if err != nil {
			return nil, fmt.Errorf("key %q: %w", pr.Key, err)
		}
		out[string(pr.Key)] += uint64(n)
	}
	return out, nil
}
