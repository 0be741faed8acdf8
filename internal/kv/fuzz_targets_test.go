package kv

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// Native Go fuzz targets for the kv wire formats (run with
// `go test -fuzz=Fuzz<Name> ./internal/kv/`; seed corpora live in
// testdata/fuzz/). They complement the testing/quick properties in
// fuzz_test.go with coverage-guided exploration of the decoders.

// pairsFromBytes deterministically derives a pair list from raw fuzz input:
// alternating length bytes pick key/value sizes, the payload is sliced from
// the remaining bytes. Every structured target uses the same scheme, so
// corpus entries transfer between targets.
func pairsFromBytes(data []byte) []Pair {
	var pairs []Pair
	for i := 0; i+2 < len(data) && len(pairs) < 512; {
		kl := int(data[i]%13) + 1
		vl := int(data[i+1] % 17)
		i += 2
		if i+kl+vl > len(data) {
			break
		}
		pairs = append(pairs, Pair{Key: data[i : i+kl], Value: data[i+kl : i+kl+vl]})
		i += kl + vl
	}
	return pairs
}

// tieSeed encodes count pairs drawn in turn from tieKeys and tieValues in
// pairsFromBytes' format, skipping the empty key.
func tieSeed(count int) []byte {
	var data []byte
	for i := 0; i < count; i++ {
		k := tieKeys[1+i%(len(tieKeys)-1)]
		v := tieValues[(i/3)%len(tieValues)]
		data = append(data, byte(len(k)-1), byte(len(v)))
		data = append(data, k...)
		data = append(data, v...)
	}
	return data
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// FuzzUnmarshal feeds arbitrary bytes to the blob decoder: it must never
// panic or over-allocate, and anything it accepts must survive a
// re-encode/decode round trip unchanged.
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(Marshal(nil))
	f.Add(Marshal([]Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("bb"), Value: nil}}))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // absurd pair count
	f.Fuzz(func(t *testing.T, blob []byte) {
		pairs, err := Unmarshal(blob)
		if err != nil {
			return // corrupt input rejected cleanly: fine
		}
		re := Marshal(pairs)
		got, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded blob failed: %v", err)
		}
		if !pairsEqual(pairs, got) {
			t.Fatalf("round trip changed pairs: %d vs %d", len(pairs), len(got))
		}
	})
}

// FuzzStreamDecode feeds arbitrary bytes to the streaming frame reader (the
// layout of a run file past its count): it must reject corruption with an
// error, never panic, and framed pairs must read back identically.
func FuzzStreamDecode(f *testing.F) {
	f.Add([]byte("\x03\x05hello world this is a stream of words"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes through the decoder: error or clean EOF only.
		r := NewReader(bytes.NewReader(data))
		for {
			if _, err := r.Read(); err != nil {
				break
			}
		}

		// Structured round trip: derived pairs framed, then read back, once
		// through the default chunk and once through chunks of 1–13 bytes
		// that frames straddle. Pairs are compared after the last read: a
		// later chunk must not have overwritten an earlier pair.
		pairs := pairsFromBytes(data)
		for _, chunk := range []int{readerChunk, 1 + len(data)%13} {
			r = newReaderSize(bytes.NewReader(frames(pairs)), chunk, -1)
			var got []Pair
			for {
				p, err := r.Read()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("stream decode, %d-byte chunks: %v", chunk, err)
				}
				got = append(got, p)
			}
			if !pairsEqual(pairs, got) {
				t.Fatalf("stream round trip through %d-byte chunks changed pairs: %d vs %d", chunk, len(pairs), len(got))
			}
		}
	})
}

// FuzzRunRoundTrip checks the run encoding both plain and DEFLATE-compressed:
// a run built from sorted pairs must iterate back the identical sequence and
// report exact record/byte tallies.
func FuzzRunRoundTrip(f *testing.F) {
	f.Add([]byte("\x01\x02compress me compress me compress me"))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		compress := data[0]%2 == 1
		pairs := pairsFromBytes(data[1:])
		SortPairs(pairs)
		run := NewRun(pairs, compress)
		var raw int64
		for _, p := range pairs {
			raw += p.Size()
		}
		if run.Records != len(pairs) || run.RawBytes != raw {
			t.Fatalf("run accounting: records %d/%d raw %d/%d", run.Records, len(pairs), run.RawBytes, raw)
		}
		got := Drain(run.Iter())
		if !pairsEqual(pairs, got) {
			t.Fatalf("run round trip changed pairs: %d vs %d", len(pairs), len(got))
		}
	})
}

// FuzzRunIter feeds arbitrary bytes to the resident-run decoder as a peer's
// run, compressed or not, with any record count: Iter must never panic, and
// it must agree with Pairs — the same pairs when Pairs decodes, an error
// from Err when Pairs fails, after a prefix of Pairs' pairs at most.
func FuzzRunIter(f *testing.F) {
	f.Add([]byte{}, false, uint16(0))
	f.Add(Marshal([]Pair{{Key: []byte("a"), Value: []byte("1")}}), false, uint16(1))
	f.Add(NewRun([]Pair{{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 64)}}, true).Blob(), true, uint16(1))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), false, uint16(3))
	f.Fuzz(func(t *testing.T, blob []byte, compressed bool, records uint16) {
		run := RunFromBlob(blob, int(records), int64(len(blob)), compressed)
		want, werr := run.Pairs()
		it := run.Iter()
		got := Drain(it)
		if (it.Err() == nil) != (werr == nil) {
			t.Fatalf("Iter err=%v, Pairs err=%v", it.Err(), werr)
		}
		if werr == nil && !pairsEqual(got, want) {
			t.Fatalf("Iter decoded %d pairs, Pairs %d — contents differ", len(got), len(want))
		}
		if it.Err() == nil && len(got) != int(records) {
			t.Fatalf("Iter delivered %d pairs of %d without an error", len(got), records)
		}
	})
}

// FuzzBatchRunRange drives the batch partition pipeline (scatter, range
// sort, direct serialization) against the []Pair reference path on
// arbitrary inputs: every partition's run must be byte-identical.
func FuzzBatchRunRange(f *testing.F) {
	f.Add([]byte("\x03the quick brown fox jumps over the lazy dog"), uint8(4))
	f.Add([]byte{1, 2, 3}, uint8(1))
	// The prefix-tie shapes of TestBatchSortRangePrefixTies, less the empty
	// key pairsFromBytes cannot encode: a few pairs, and enough in one
	// partition to take the radix sort.
	f.Add(tieSeed(24), uint8(2))
	f.Add(tieSeed(400), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, np uint8) {
		n := int(np%9) + 1
		pairs := pairsFromBytes(data)
		var b Batch
		for _, p := range pairs {
			b.Append(p)
		}
		bounds := b.PartitionRanges(Partition, n)
		ref := make([][]Pair, n)
		for _, p := range pairs {
			ref[Partition(p.Key, n)] = append(ref[Partition(p.Key, n)], p)
		}
		for p := 0; p < n; p++ {
			lo, hi := bounds[p], bounds[p+1]
			if hi-lo != len(ref[p]) {
				t.Fatalf("partition %d: %d records, want %d", p, hi-lo, len(ref[p]))
			}
			if lo == hi {
				continue
			}
			b.SortRange(lo, hi)
			SortPairs(ref[p])
			if !bytes.Equal(b.RunRange(lo, hi, false).Blob(), NewRun(ref[p], false).Blob()) {
				t.Fatalf("partition %d: batch run differs from reference run", p)
			}
		}
	})
}

// FuzzMergeRuns checks the k-way merge: pairs scattered round-robin over
// several runs must merge back to exactly the sorted whole — same multiset,
// key-then-value order preserved.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte("\x03\x01the quick brown fox jumps over the lazy dog"))
	f.Add([]byte{7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		fanIn := int(data[0]%7) + 1
		compress := data[1]%2 == 1
		pairs := pairsFromBytes(data[2:])
		shards := make([][]Pair, fanIn)
		for i, p := range pairs {
			shards[i%fanIn] = append(shards[i%fanIn], p)
		}
		runs := make([]*Run, 0, fanIn)
		for _, shard := range shards {
			SortPairs(shard)
			runs = append(runs, NewRun(shard, compress))
		}
		merged := MergeRuns(runs, compress)
		got := Drain(merged.Iter())
		if !PairsSorted(got) {
			t.Fatalf("merge output not sorted (%d pairs)", len(got))
		}
		want := append([]Pair(nil), pairs...)
		SortPairs(want)
		if !pairsEqual(want, got) {
			t.Fatalf("merge changed the multiset: %d vs %d pairs", len(want), len(got))
		}
	})
}

// FuzzMergeGroups drives the merge's group step against Merge + GroupIter.
// Each input byte is one pair — a key and a value from tieKeys and
// tieValues, the empty key and empty values among them — dealt to one of up
// to seven sources, each sorted: keys and whole pairs repeat within and
// across sources, and some sources are empty. Every group's key and values
// must come out byte for byte as GroupIter cuts Merge's pairs, value order
// included, through the Merger's one values slice, reused from group to
// group and kept by Reset from an earlier merge.
func FuzzMergeGroups(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{0})
	f.Add(append([]byte{4}, bytes.Repeat([]byte{0x00, 0x0c, 0x18, 0x24, 0x4b, 0x97}, 30)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%7) + 1
		srcs := make([][]Pair, n)
		combos := len(tieKeys) * len(tieValues)
		for i, b := range data[1:] {
			c := int(b) % combos
			s := (i + int(b)/combos) % n
			srcs[s] = append(srcs[s], Pair{Key: []byte(tieKeys[c%len(tieKeys)]), Value: []byte(tieValues[c/len(tieKeys)])})
		}
		iters := func() []Iterator {
			its := make([]Iterator, n)
			for i, src := range srcs {
				its[i] = NewSliceIter(src)
			}
			return its
		}
		for _, src := range srcs {
			SortPairs(src)
		}
		want := NewGroupIter(Merge(iters()...))
		// A reducer's merger has merged another partition before: run it
		// through the first half of the sources, then Reset it.
		m := NewMerger(iters()[:n/2]...)
		for _, _, ok := m.NextGroup(); ok; _, _, ok = m.NextGroup() {
		}
		m.Reset(iters()...)
		for groups := 0; ; groups++ {
			wg, wok := want.Next()
			key, got, ok := m.NextGroup()
			if ok != wok {
				t.Fatalf("group %d: NextGroup ok=%v, GroupIter ok=%v", groups, ok, wok)
			}
			if !ok {
				break
			}
			if !bytes.Equal(key, wg.Key) || len(got) != len(wg.Values) {
				t.Fatalf("group %d: key %q with %d values, want %q with %d", groups, key, len(got), wg.Key, len(wg.Values))
			}
			for i := range got {
				if !bytes.Equal(got[i], wg.Values[i]) {
					t.Fatalf("group %d (%q): value %d is %q, want %q", groups, key, i, got[i], wg.Values[i])
				}
			}
		}
	})
}
