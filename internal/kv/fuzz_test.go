package kv

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickUnmarshalNeverPanics: arbitrary byte corruption of a valid blob
// must produce either an error or some decoded pairs — never a panic or an
// out-of-bounds read.
func TestQuickUnmarshalNeverPanics(t *testing.T) {
	base := Marshal([]Pair{
		{Key: []byte("alpha"), Value: []byte("1234")},
		{Key: []byte("beta"), Value: bytes.Repeat([]byte("v"), 100)},
		{Key: []byte("gamma"), Value: nil},
	})
	f := func(seed int64, nmut uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		blob := append([]byte(nil), base...)
		for i := 0; i < int(nmut%16)+1; i++ {
			switch rng.Intn(3) {
			case 0: // flip a byte
				blob[rng.Intn(len(blob))] ^= byte(1 << rng.Intn(8))
			case 1: // truncate
				if len(blob) > 1 {
					blob = blob[:rng.Intn(len(blob))+1]
				}
			case 2: // extend with junk
				blob = append(blob, byte(rng.Intn(256)))
			}
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("seed %d: Unmarshal panicked: %v", seed, r)
			}
		}()
		pairs, err := Unmarshal(blob)
		// Either outcome is fine; decoded pairs must be within the blob.
		if err == nil {
			for _, p := range pairs {
				_ = p.Size()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRunRoundTripRandom: random sorted pair sets survive the full
// serialize-compress-decompress-deserialize cycle bit-for-bit.
func TestQuickRunRoundTripRandom(t *testing.T) {
	f := func(seed int64, n uint8, compress bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf Buffer
		for i := 0; i < int(n); i++ {
			k := make([]byte, rng.Intn(20))
			v := make([]byte, rng.Intn(50))
			rng.Read(k)
			rng.Read(v)
			buf.AddKV(k, v)
		}
		buf.Sort()
		r := NewRun(buf.Pairs, compress)
		got, err := r.Pairs()
		if err != nil || len(got) != buf.Len() {
			return false
		}
		for i := range got {
			if got[i].Compare(buf.Pairs[i]) != 0 {
				return false
			}
		}
		return r.RawBytes == buf.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeEquivalentToSort: k-way merging sorted shards equals
// sorting the concatenation.
func TestQuickMergeEquivalentToSort(t *testing.T) {
	f := func(seed int64, shards uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(shards%6) + 1
		var all Buffer
		var iters []Iterator
		for s := 0; s < k; s++ {
			var b Buffer
			for i := 0; i < rng.Intn(60); i++ {
				key := []byte{byte('a' + rng.Intn(16))}
				val := []byte{byte(rng.Intn(256))}
				b.AddKV(key, val)
				all.AddKV(key, val)
			}
			b.Sort()
			iters = append(iters, NewSliceIter(b.Pairs))
		}
		merged := Drain(iters...)
		all.Sort()
		if len(merged) != all.Len() {
			return false
		}
		for i := range merged {
			if merged[i].Compare(all.Pairs[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
