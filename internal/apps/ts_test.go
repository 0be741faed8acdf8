package apps

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// rankPartition is the range partitioner's definition, kept as the oracle:
// rank the key against the whole sample, then map the rank to a partition
// by quantile.
func rankPartition(sample [][]byte, key []byte, n int) int {
	if n <= 1 || len(sample) == 0 {
		return 0
	}
	rank := sort.Search(len(sample), func(i int) bool { return bytes.Compare(sample[i], key) > 0 })
	return min(n-1, rank*n/(len(sample)+1))
}

// TestRangePartitionerMatchesRank: searching the n-1 splitters puts every
// key where ranking it against the whole sample does — for samples with
// duplicate keys, empty keys and long keys that share their first eight
// bytes, for partition counts around the sample size, and when goroutines
// make the first call for a partition count at once.
func TestRangePartitionerMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Keys over {0x00, 'a', 'b'}: empty keys, keys that differ only by
	// trailing zeros and duplicates all occur, and the long ones share the
	// prefix "abababab".
	key := func() []byte {
		k := make([]byte, 0, 12)
		if rng.Intn(2) == 0 {
			k = append(k, "abababab"...)
		}
		for i := rng.Intn(4); i > 0; i-- {
			k = append(k, "\x00ab"[rng.Intn(3)])
		}
		return k
	}
	sampleOf := func(s int) [][]byte {
		sample := make([][]byte, s)
		for i := range sample {
			sample[i] = key()
		}
		sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
		return sample
	}
	ts := TSData(9, 3000)
	samples := map[string][][]byte{
		"empty":  nil,
		"one":    sampleOf(1),
		"small":  sampleOf(40),
		"dups":   {[]byte{}, []byte{}, []byte("a"), []byte("a"), []byte("a"), []byte("a\x00"), []byte("abababab\x00"), []byte("abababab\x00")},
		"large":  sampleOf(2000),
		"tera":   TeraSample(ts, 1),
		"zeroes": {[]byte{}, {0}, {0, 0}, {0, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
	}
	for name, sample := range samples {
		t.Run(name, func(t *testing.T) {
			// Every sample key, its neighbours on either side, and fresh keys.
			probes := [][]byte{nil}
			for _, k := range sample {
				probes = append(probes, k, append(bytes.Clone(k), 0))
				if len(k) > 0 {
					probes = append(probes, k[:len(k)-1])
				}
			}
			for i := 0; i < 200; i++ {
				probes = append(probes, key())
			}
			for i := 0; i < 100; i++ {
				probes = append(probes, ts[i*workload.TeraRecordSize:i*workload.TeraRecordSize+10])
			}
			s := len(sample)
			ns := []int{1, 2, 8, s, s + 1, s + 2, 300}
			shared := RangePartitioner(sample)
			for _, n := range ns {
				// Four goroutines make the first calls for n at once.
				part := RangePartitioner(sample)
				var wg sync.WaitGroup
				start := make(chan struct{})
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for _, k := range probes {
							if got, want := part(k, n), rankPartition(sample, k, n); got != want {
								t.Errorf("n=%d key %x: partition %d, want %d", n, k, got, want)
								return
							}
						}
					}()
				}
				close(start)
				wg.Wait()
				// One partitioner asked for each n in turn rebuilds its
				// splitters every time n changes.
				for _, k := range probes {
					if got, want := shared(k, n), rankPartition(sample, k, n); got != want {
						t.Fatalf("shared partitioner, n=%d key %x: partition %d, want %d", n, k, got, want)
					}
				}
			}
		})
	}
}

// TestVerifyTeraSortReportsKeys: a failed check names the record and shows
// the keys involved, in hex.
func TestVerifyTeraSortReportsKeys(t *testing.T) {
	data := TSData(4, 6)
	var out []kv.Pair
	for off := 0; off < len(data); off += workload.TeraRecordSize {
		rec := data[off : off+workload.TeraRecordSize]
		out = append(out, kv.Pair{Key: rec[:10], Value: rec[10:]})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	if err := VerifyTeraSort(out, data); err != nil {
		t.Fatalf("sorted output rejected: %v", err)
	}

	swapped := append([]kv.Pair(nil), out...)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	wantOrder := fmt.Sprintf("order violation at record 3: key %x follows %x", swapped[3].Key, swapped[2].Key)
	if err := VerifyTeraSort(swapped, data); err == nil || !strings.Contains(err.Error(), wantOrder) {
		t.Fatalf("swapped records: error %v, want it to contain %q", err, wantOrder)
	}

	changed := append([]kv.Pair(nil), out...)
	changed[4].Key = bytes.Clone(out[4].Key)
	changed[4].Key[9]++
	wantKey := fmt.Sprintf("key mismatch at record 4: got %x, want %x", changed[4].Key, out[4].Key)
	if err := VerifyTeraSort(changed, data); err == nil || !strings.Contains(err.Error(), wantKey) {
		t.Fatalf("changed key: error %v, want it to contain %q", err, wantKey)
	}
}
