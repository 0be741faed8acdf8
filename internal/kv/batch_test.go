package kv

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBatchAppendAndViews(t *testing.T) {
	var b Batch
	pairs := []Pair{
		{Key: []byte("alpha"), Value: []byte("1")},
		{Key: []byte("beta"), Value: nil},
		{Key: nil, Value: []byte("orphan")},
	}
	for _, p := range pairs {
		b.Append(p)
	}
	if b.Len() != len(pairs) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(pairs))
	}
	var want int64
	for i, p := range pairs {
		got := b.Pair(i)
		if !bytes.Equal(got.Key, p.Key) || !bytes.Equal(got.Value, p.Value) {
			t.Fatalf("Pair(%d) = %q/%q, want %q/%q", i, got.Key, got.Value, p.Key, p.Value)
		}
		want += p.Size()
	}
	if b.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", b.Bytes(), want)
	}
	views := b.Pairs(nil)
	if !pairsEqual(views, pairs) {
		t.Fatalf("Pairs() mismatch")
	}
	b.Reset()
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Fatalf("Reset left Len=%d Bytes=%d", b.Len(), b.Bytes())
	}
	// The batch is reusable after Reset.
	b.AppendKV([]byte("again"), []byte("x"))
	if got := b.Pair(0); string(got.Key) != "again" {
		t.Fatalf("post-Reset Pair(0).Key = %q", got.Key)
	}
}

func TestBatchAppendDoesNotAliasInput(t *testing.T) {
	var b Batch
	key := []byte("mutable")
	val := []byte("value")
	b.AppendKV(key, val)
	key[0], val[0] = 'X', 'X'
	got := b.Pair(0)
	if string(got.Key) != "mutable" || string(got.Value) != "value" {
		t.Fatalf("batch aliased caller bytes: %q/%q", got.Key, got.Value)
	}
}

// TestBatchSortRangeMatchesSortPairs runs below and above radixMin, so
// both the comparison sort and the radix sort are checked.
func TestBatchSortRangeMatchesSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, count := range []int{200, 2000} {
		pairs := randomPairs(rng, count)
		var b Batch
		for _, p := range pairs {
			b.Append(p)
		}
		b.Sort()
		ref := append([]Pair(nil), pairs...)
		SortPairs(ref)
		if !pairsEqual(b.Pairs(nil), ref) {
			t.Fatalf("%d pairs: Batch.Sort disagrees with SortPairs", count)
		}
	}
}

// tieKeys and tieValues are the shapes an 8-byte prefix cannot tell apart:
// keys longer than eight bytes that share their first eight, keys that
// differ only by trailing zeros (which pad the prefix), empty keys, and
// values that differ under one key.
var (
	tieKeys = []string{"", "\x00", "a", "a\x00", "a\x00\x00", "abcdefgh", "abcdefgh\x00",
		"abcdefgh\x00\x00", "abcdefgh\x01", "abcdefghi", "abcdefgh\xff\xff", "abcdefgi"}
	tieValues = []string{"", "\x00", "1", "10", "2", "\x00\x00\x00\x00\x00\x00\x00\x00\x01"}
)

// TestBatchSortRangePrefixTies: where two keys' prefixes are equal the
// sort falls back to the rest of the key and then the value, and agrees
// with SortPairs — below and above radixMin.
func TestBatchSortRangePrefixTies(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, count := range []int{40, radixMin, 3000} {
		pairs := make([]Pair, count)
		for i := range pairs {
			pairs[i] = Pair{Key: []byte(tieKeys[rng.Intn(len(tieKeys))]), Value: []byte(tieValues[rng.Intn(len(tieValues))])}
		}
		var b Batch
		for _, p := range pairs {
			b.Append(p)
		}
		b.Sort()
		ref := append([]Pair(nil), pairs...)
		SortPairs(ref)
		if !pairsEqual(b.Pairs(nil), ref) {
			t.Fatalf("%d pairs: Batch.Sort disagrees with SortPairs on prefix ties", count)
		}
	}
}

func TestBatchPartitionRangesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pairs := randomPairs(rng, 300)
	const n = 7
	var b Batch
	for _, p := range pairs {
		b.Append(p)
	}
	bounds := b.PartitionRanges(Partition, n)
	if len(bounds) != n+1 || bounds[0] != 0 || bounds[n] != len(pairs) {
		t.Fatalf("bad bounds %v", bounds)
	}
	// Reference: stable bucketing in append order.
	ref := make([][]Pair, n)
	for _, p := range pairs {
		part := Partition(p.Key, n)
		ref[part] = append(ref[part], p)
	}
	for p := 0; p < n; p++ {
		var got []Pair
		for i := bounds[p]; i < bounds[p+1]; i++ {
			got = append(got, b.Pair(i))
		}
		if !pairsEqual(got, ref[p]) {
			t.Fatalf("partition %d: scatter disagrees with reference bucketing", p)
		}
	}
}

func TestBatchRunRangeMatchesNewRun(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pairs := randomPairs(rng, 150)
	for _, compress := range []bool{false, true} {
		var b Batch
		for _, p := range pairs {
			b.Append(p)
		}
		b.Sort()
		sorted := append([]Pair(nil), pairs...)
		SortPairs(sorted)

		got := b.RunRange(0, b.Len(), compress)
		want := NewRun(sorted, compress)
		if !bytes.Equal(got.Blob(), want.Blob()) {
			t.Fatalf("compress=%v: RunRange blob differs from NewRun blob", compress)
		}
		if got.Records != want.Records || got.RawBytes != want.RawBytes || got.Compressed != want.Compressed {
			t.Fatalf("compress=%v: run metadata %d/%d/%v, want %d/%d/%v", compress,
				got.Records, got.RawBytes, got.Compressed, want.Records, want.RawBytes, want.Compressed)
		}
		// The direct encoder's size precomputation must be exact: no slack
		// capacity from growth, no reallocation.
		if !compress && cap(got.Blob()) != len(got.Blob()) {
			t.Fatalf("RunRange blob has slack: len=%d cap=%d", len(got.Blob()), cap(got.Blob()))
		}
	}
}

// TestQuickBatchPartitionPipeline drives the whole batch-side partition
// path (scatter, per-range sort, direct serialization) against the classic
// []Pair path (bucket, SortPairs, NewRun) on random inputs: every
// partition's run must be byte-identical.
func TestQuickBatchPartitionPipeline(t *testing.T) {
	prop := func(seed int64, n uint8, parts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pairs := randomPairs(rng, int(n))
		np := int(parts%9) + 1
		var b Batch
		for _, p := range pairs {
			b.Append(p)
		}
		bounds := b.PartitionRanges(Partition, np)

		ref := make([][]Pair, np)
		for _, p := range pairs {
			part := Partition(p.Key, np)
			ref[part] = append(ref[part], p)
		}
		for p := 0; p < np; p++ {
			lo, hi := bounds[p], bounds[p+1]
			if hi-lo != len(ref[p]) {
				return false
			}
			if lo == hi {
				continue
			}
			b.SortRange(lo, hi)
			SortPairs(ref[p])
			if !bytes.Equal(b.RunRange(lo, hi, false).Blob(), NewRun(ref[p], false).Blob()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
