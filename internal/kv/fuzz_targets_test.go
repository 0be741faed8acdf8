package kv

import (
	"bytes"
	"encoding/binary"
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

// countedRun encodes sorted pairs as a run with one frame per stretch of
// equal pairs, standing for the stretch. Where no key comes with two
// values — the counting table's case — it is Batch.RunCounted's run, and
// the test fails unless RunCounted makes the same bytes and accounting.
func countedRun(t testing.TB, pairs []Pair, compress bool) *Run {
	t.Helper()
	var blob []byte
	var b Batch
	var raw int64
	distinct := true
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].Compare(pairs[i]) == 0 {
			j++
		}
		p := pairs[i]
		blob = appendRunFrame(blob, p.Key, p.Value, j-i)
		raw += p.Size()
		distinct = distinct && (i == 0 || !bytes.Equal(pairs[i-1].Key, p.Key))
		b.AppendKV(p.Key, append(binary.BigEndian.AppendUint32(nil, uint32(j-i)), p.Value...))
		i = j
	}
	run := sealRun(append(binary.AppendUvarint(nil, uint64(len(pairs))), blob...), len(pairs), raw, compress)
	if distinct {
		got, pairBytes := b.RunCounted(0, b.Len(), compress)
		var want int64
		for _, p := range pairs {
			want += p.Size()
		}
		if !bytes.Equal(got.Blob(), run.Blob()) || got.Records != run.Records || got.RawBytes != raw || pairBytes != want {
			t.Fatalf("RunCounted: %d pairs, %d frame bytes, %d pair bytes; want %d, %d, %d and the reference's blob",
				got.Records, got.RawBytes, pairBytes, run.Records, raw, want)
		}
	}
	return run
}

// repeated derives counted pairs from fuzz pairs: pair i comes 1 to 4
// times in a row, by its key's first byte.
func repeated(pairs []Pair) []Pair {
	var out []Pair
	for _, p := range pairs {
		for range 1 + int(p.Key[0]%4) {
			out = append(out, p)
		}
	}
	return out
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
// layout of a filed run past its count): it must reject corruption with an
// error, never panic, and framed pairs — counted ones among them — must
// read back identically.
func FuzzStreamDecode(f *testing.F) {
	f.Add([]byte("\x06\x05hello world this is a stream of words"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes through the decoder: error or clean EOF only, and
		// a frame stands for one pair at least.
		r := newFrameReader(bytes.NewReader(data), readerChunk, -1)
		for {
			_, n, err := r.read()
			if err != nil {
				break
			}
			if n < 1 {
				t.Fatalf("a frame that stands for %d pairs", n)
			}
		}

		// Structured round trip: derived pairs framed with counts, then
		// read back, once through the default chunk and once through
		// chunks of 1–13 bytes that frames (and their counts) straddle.
		// Pairs are compared after the last read: a later chunk must not
		// have overwritten an earlier pair.
		pairs := pairsFromBytes(data)
		var stream []byte
		for i, p := range pairs {
			stream = appendRunFrame(stream, p.Key, p.Value, 1+i%3)
		}
		for _, chunk := range []int{readerChunk, 1 + len(data)%13} {
			r = newFrameReader(bytes.NewReader(stream), chunk, -1)
			var got []Pair
			for i := 0; ; i++ {
				p, n, err := r.read()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("stream decode, %d-byte chunks: %v", chunk, err)
				}
				if n != 1+i%3 {
					t.Fatalf("frame %d, %d-byte chunks: stands for %d pairs, want %d", i, chunk, n, 1+i%3)
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
// run, compressed or not, with any record count: Iter must never panic,
// and read pair by pair (Next) and frame by frame (as a Merger reads it) it
// must deliver the same pairs and fail alike, never more pairs than the
// run's count, and all of them when it does not fail.
func FuzzRunIter(f *testing.F) {
	word := []Pair{{Key: []byte("a"), Value: []byte("1")}}
	words := []Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")}, {Key: []byte("c"), Value: nil}, {Key: []byte("c"), Value: nil}}
	f.Add([]byte{}, false, uint16(0))
	f.Add(NewRun(word, false).Blob(), false, uint16(1))
	f.Add(NewRun([]Pair{{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 64)}}, true).Blob(), true, uint16(1))
	f.Add(countedRun(f, words, false).Blob(), false, uint16(len(words)))
	f.Add(countedRun(f, words, true).Blob(), true, uint16(len(words)))
	f.Add(countedRun(f, repeated(pairsFromBytes([]byte("\x05\x02some-keyvv\x01\x00xy"))), false).Blob(), false, uint16(5))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), false, uint16(3))
	f.Fuzz(func(t *testing.T, blob []byte, compressed bool, records uint16) {
		run := RunFromBlob(blob, int(records), int64(len(blob)), compressed)
		it := run.Iter()
		got := Drain(it)
		fr := run.Iter()
		var want []Pair
		for p, n, ok := fr.nextFrame(); ok; p, n, ok = fr.nextFrame() {
			if n < 1 || len(want)+n > int(records) {
				t.Fatalf("a frame of %d pairs after %d of %d", n, len(want), records)
			}
			for range n {
				want = append(want, p)
			}
		}
		if (it.Err() == nil) != (fr.Err() == nil) {
			t.Fatalf("Next err=%v, nextFrame err=%v", it.Err(), fr.Err())
		}
		if !pairsEqual(got, want) {
			t.Fatalf("Next decoded %d pairs, nextFrame %d — contents differ", len(got), len(want))
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

// orderFold is an 8-byte running hash of a value sequence (FNV-1a over
// each value's bytes and its length), so two sequences that differ in one
// value or in order fold differently.
func orderFold(h uint64, v []byte) uint64 {
	for _, b := range v {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return (h ^ uint64(len(v))) * 1099511628211
}

// orderAcc is the accumulator, width bytes wide, that holds the running
// hash h: its little-endian bytes, cut to width or zero-padded to it.
func orderAcc(h uint64, width int) []byte {
	acc := make([]byte, max(width, 8))
	binary.LittleEndian.PutUint64(acc, h)
	return acc[:width]
}

// FuzzMergeGroups drives the merge's group step against Merge + GroupIter.
// Each input byte is one pair — a key and a value from tieKeys and
// tieValues, the empty key and empty values among them — dealt to one of up
// to seven sources, each sorted: keys and whole pairs repeat within and
// across sources, and some sources are empty. A source is a slice, a run
// with a frame per pair, or a counted run (one frame per stretch of equal
// pairs: RunCounted's where no key has two values), plain or DEFLATEd.
// Every group's key and values must come out byte for byte as GroupIter
// cuts Merge's pairs, value order included, through the Merger's one
// values slice, reused from group to group and kept by Reset from an
// earlier merge. FoldGroup, on the same merger Reset once more, must then
// fold the groups a fresh merger's NextGroup returns: the same keys, one
// fold per value, and an accumulator as wide as the group's first value
// holding orderFold over its values in their order.
func FuzzMergeGroups(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{0})
	f.Add(append([]byte{4}, bytes.Repeat([]byte{0x00, 0x0c, 0x18, 0x24, 0x4b, 0x97}, 30)...))
	f.Add(append([]byte{6}, bytes.Repeat([]byte{0x01, 0x01, 0x02, 0x0e, 0x0e, 0x0e}, 40)...))
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
		runs := make([]*Run, n)
		for i, src := range srcs {
			SortPairs(src)
			switch compress := data[0]&8 != 0; i % 3 {
			case 1:
				runs[i] = NewRun(src, compress)
			case 2:
				runs[i] = countedRun(t, src, compress)
			}
		}
		iters := func() []Iterator {
			its := make([]Iterator, n)
			for i, src := range srcs {
				if runs[i] != nil {
					its[i] = runs[i].Iter()
				} else {
					its[i] = NewSliceIter(src)
				}
			}
			return its
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
		m.Reset(iters()...)
		ref := NewMerger(iters()...)
		var out Batch
		var h uint64
		fold := func(acc, v []byte) {
			// acc is the group's own accumulator, holding what the last
			// fold left in it, zeroed before the first.
			if !bytes.Equal(acc, orderAcc(h, len(acc))) {
				t.Fatalf("fold into %x, want the accumulator of %016x", acc, h)
			}
			h = orderFold(h, v)
			copy(acc, orderAcc(h, len(acc)))
		}
		for groups := 0; ; groups++ {
			key, vals, wok := ref.NextGroup()
			h = 0
			pairs, ok := m.FoldGroup(fold, &out)
			if ok != wok {
				t.Fatalf("group %d: FoldGroup ok=%v, NextGroup ok=%v", groups, ok, wok)
			}
			if !ok {
				if out.Len() != groups {
					t.Fatalf("%d groups folded into %d pairs", groups, out.Len())
				}
				break
			}
			var want uint64
			for _, v := range vals {
				want = orderFold(want, v)
			}
			got := out.Pair(out.Len() - 1)
			if !bytes.Equal(got.Key, key) || pairs != len(vals) || h != want {
				t.Fatalf("group %d: folded %q, %d values to %016x, want %q, %d values to %016x", groups, got.Key, pairs, h, key, len(vals), want)
			}
			if acc := orderAcc(want, len(vals[0])); !bytes.Equal(got.Value, acc) {
				t.Fatalf("group %d (%q): accumulator %x, want %x", groups, key, got.Value, acc)
			}
		}
		// GroupIter's groups come from Merge pair by pair: they must be
		// the sources' pairs, sorted.
		var all []Pair
		for _, src := range srcs {
			all = append(all, src...)
		}
		SortPairs(all)
		if got := Drain(iters()...); !pairsEqual(got, all) {
			t.Fatalf("Merge yielded %d pairs, want the sources' %d sorted", len(got), len(all))
		}
	})
}
