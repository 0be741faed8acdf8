package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPairCompare(t *testing.T) {
	cases := []struct {
		a, b Pair
		want int
	}{
		{Pair{Key: []byte("a")}, Pair{Key: []byte("b")}, -1},
		{Pair{Key: []byte("b")}, Pair{Key: []byte("a")}, 1},
		{Pair{Key: []byte("a"), Value: []byte("1")}, Pair{Key: []byte("a"), Value: []byte("2")}, -1},
		{Pair{Key: []byte("a"), Value: []byte("x")}, Pair{Key: []byte("a"), Value: []byte("x")}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%q/%q, %q/%q) = %d, want %d", c.a.Key, c.a.Value, c.b.Key, c.b.Value, got, c.want)
		}
	}
}

func TestPartitionRangeAndStability(t *testing.T) {
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		p := Partition(key, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("Partition out of range: %d", p)
		}
		if p != Partition(key, 7) {
			t.Fatal("Partition not stable")
		}
	}
	if Partition([]byte("x"), 1) != 0 || Partition([]byte("x"), 0) != 0 {
		t.Fatal("degenerate partition counts must map to 0")
	}
}

func TestBufferSortAndBytes(t *testing.T) {
	var b Buffer
	b.AddKV([]byte("zebra"), []byte("1"))
	b.AddKV([]byte("apple"), []byte("22"))
	b.AddKV([]byte("mango"), []byte("333"))
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Bytes() != int64(5+1+5+2+5+3) {
		t.Fatalf("Bytes = %d", b.Bytes())
	}
	if b.Sorted() {
		t.Fatal("buffer should not report sorted")
	}
	b.Sort()
	if !b.Sorted() {
		t.Fatal("buffer should be sorted after Sort")
	}
	if string(b.Pairs[0].Key) != "apple" || string(b.Pairs[2].Key) != "zebra" {
		t.Fatalf("sort order wrong: %v", b.Pairs)
	}
	b.Reset()
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	pairs := []Pair{
		{Key: []byte("k1"), Value: []byte("v1")},
		{Key: []byte(""), Value: []byte("empty key")},
		{Key: []byte("k3"), Value: nil},
		{Key: bytes.Repeat([]byte("x"), 1000), Value: bytes.Repeat([]byte("y"), 5000)},
	}
	got, err := Unmarshal(Marshal(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("len = %d, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if !bytes.Equal(got[i].Key, pairs[i].Key) || !bytes.Equal(got[i].Value, pairs[i].Value) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte{}); err == nil {
		t.Error("empty blob should error")
	}
	blob := Marshal([]Pair{{Key: []byte("abcdef"), Value: []byte("ghijkl")}})
	if _, err := Unmarshal(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob should error")
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(keys, vals [][]byte) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		pairs := make([]Pair, n)
		for i := 0; i < n; i++ {
			pairs[i] = Pair{Key: keys[i], Value: vals[i]}
		}
		got, err := Unmarshal(Marshal(pairs))
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, pairs[i].Key) || !bytes.Equal(got[i].Value, pairs[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomSorted(rng *rand.Rand, n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{
			Key:   []byte(fmt.Sprintf("k%06d", rng.Intn(n*2))),
			Value: []byte(fmt.Sprintf("v%d", rng.Intn(100))),
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Compare(pairs[j]) < 0 })
	return pairs
}

func TestMergeProducesSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var iters []Iterator
	total := 0
	for i := 0; i < 5; i++ {
		ps := randomSorted(rng, 50+i*13)
		total += len(ps)
		iters = append(iters, NewSliceIter(ps))
	}
	out := Drain(iters...)
	if len(out) != total {
		t.Fatalf("merged %d pairs, want %d", len(out), total)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Compare(out[i]) > 0 {
			t.Fatalf("merge output unsorted at %d", i)
		}
	}
}

func TestMergeEmptyInputs(t *testing.T) {
	out := Drain()
	if len(out) != 0 {
		t.Fatal("empty merge should yield nothing")
	}
	out = Drain(NewSliceIter(nil), NewSliceIter(nil))
	if len(out) != 0 {
		t.Fatal("merge of empties should yield nothing")
	}
	one := []Pair{{Key: []byte("a"), Value: []byte("1")}}
	out = Drain(NewSliceIter(one), NewSliceIter(nil))
	if len(out) != 1 {
		t.Fatal("merge lost the single pair")
	}
}

// TestMergeTiesKeepInputOrder: byte-identical pairs from several inputs
// come out in input order, whatever the fan-in. Only the backing arrays
// tell the copies apart.
func TestMergeTiesKeepInputOrder(t *testing.T) {
	for k := 2; k <= 9; k++ {
		iters := make([]Iterator, k)
		values := make([][]byte, k)
		for i := range iters {
			values[i] = []byte("v")
			iters[i] = NewSliceIter([]Pair{
				{Key: []byte("a"), Value: []byte{byte(i)}},
				{Key: []byte("same"), Value: values[i]},
			})
		}
		out := Drain(iters...)
		if len(out) != 2*k {
			t.Fatalf("k=%d: merged %d pairs, want %d", k, len(out), 2*k)
		}
		for i, p := range out[k:] {
			if &p.Value[0] != &values[i][0] {
				t.Fatalf("k=%d: tie %d did not come from input %d", k, i, i)
			}
		}
	}
}

// TestQuickMergePrefixOrder pits the merge against SortPairs on keys and
// values built to defeat an eight-byte prefix: zero bytes and 0xff, lengths
// either side of eight, long strings that share their first eight bytes.
func TestQuickMergePrefixOrder(t *testing.T) {
	alphabet := []byte{0, 1, 'a', 0xff}
	str := func(rng *rand.Rand) []byte {
		b := make([]byte, rng.Intn(13))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if rng.Intn(3) == 0 {
			b = append([]byte("prefix08"), b...)
		}
		return b
	}
	f := func(seed int64, shards uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var all []Pair
		iters := make([]Iterator, int(shards%8)+1)
		for s := range iters {
			pairs := make([]Pair, rng.Intn(40))
			for i := range pairs {
				pairs[i] = Pair{Key: str(rng), Value: str(rng)}
			}
			SortPairs(pairs)
			all = append(all, pairs...)
			iters[s] = NewSliceIter(pairs)
		}
		SortPairs(all)
		return pairsEqual(all, Drain(iters...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupIter(t *testing.T) {
	pairs := []Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("2")},
		{Key: []byte("b"), Value: []byte("3")},
		{Key: []byte("c"), Value: []byte("4")},
		{Key: []byte("c"), Value: []byte("5")},
		{Key: []byte("c"), Value: []byte("6")},
	}
	gi := NewGroupIter(NewSliceIter(pairs))
	var keys []string
	var counts []int
	for {
		g, ok := gi.Next()
		if !ok {
			break
		}
		keys = append(keys, string(g.Key))
		counts = append(counts, len(g.Values))
	}
	if fmt.Sprint(keys) != "[a b c]" || fmt.Sprint(counts) != "[2 1 3]" {
		t.Fatalf("groups = %v %v", keys, counts)
	}
}

func TestGroupIterEmpty(t *testing.T) {
	gi := NewGroupIter(NewSliceIter(nil))
	if _, ok := gi.Next(); ok {
		t.Fatal("empty input should yield no groups")
	}
}

func TestGroupBytes(t *testing.T) {
	g := Group{Key: []byte("ab"), Values: [][]byte{[]byte("x"), []byte("yz")}}
	if g.Bytes() != 5 {
		t.Fatalf("Bytes = %d, want 5", g.Bytes())
	}
}

func TestQuickGroupCountsMatchPairCounts(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pairs := randomSorted(rng, int(n)+1)
		gi := NewGroupIter(NewSliceIter(pairs))
		total := 0
		var prev []byte
		for {
			g, ok := gi.Next()
			if !ok {
				break
			}
			if prev != nil && bytes.Compare(prev, g.Key) >= 0 {
				return false // keys must be strictly increasing
			}
			prev = append([]byte(nil), g.Key...)
			total += len(g.Values)
		}
		return total == len(pairs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs := randomSorted(rng, 500)
	for _, compress := range []bool{false, true} {
		r := NewRun(pairs, compress)
		if r.Records != len(pairs) {
			t.Fatalf("Records = %d", r.Records)
		}
		got, err := r.Pairs()
		if err != nil {
			t.Fatal(err)
		}
		for i := range pairs {
			if got[i].Compare(pairs[i]) != 0 {
				t.Fatalf("compress=%v: pair %d mismatch", compress, i)
			}
		}
	}
}

func TestRunCompressionShrinksRepetitiveData(t *testing.T) {
	pairs := make([]Pair, 1000)
	for i := range pairs {
		pairs[i] = Pair{Key: []byte("the-same-word"), Value: []byte{1, 0, 0, 0}}
	}
	plain := NewRun(pairs, false)
	comp := NewRun(pairs, true)
	if comp.StoredBytes() >= plain.StoredBytes()/2 {
		t.Fatalf("compression ineffective: %d vs %d", comp.StoredBytes(), plain.StoredBytes())
	}
	if comp.RawBytes != plain.RawBytes {
		t.Fatal("RawBytes must be encoding-independent")
	}
}

func TestNewRunPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted input")
		}
	}()
	NewRun([]Pair{{Key: []byte("b")}, {Key: []byte("a")}}, false)
}

func TestMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var runs []*Run
	total := 0
	for i := 0; i < 4; i++ {
		ps := randomSorted(rng, 100)
		total += len(ps)
		runs = append(runs, NewRun(ps, i%2 == 0))
	}
	merged := MergeRuns(runs, true)
	if merged.Records != total {
		t.Fatalf("merged records = %d, want %d", merged.Records, total)
	}
	ps, err := merged.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Compare(ps[i]) > 0 {
			t.Fatal("merged run unsorted")
		}
	}
}

func TestSortPairsShared(t *testing.T) {
	pairs := []Pair{
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("a"), Value: []byte("9")},
		{Key: []byte("b"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("1")},
	}
	if PairsSorted(pairs) {
		t.Fatal("unsorted input reported sorted")
	}
	SortPairs(pairs)
	if !PairsSorted(pairs) {
		t.Fatal("SortPairs left pairs unsorted")
	}
	want := "a1 a9 b1 b2"
	var got string
	for i, p := range pairs {
		if i > 0 {
			got += " "
		}
		got += string(p.Key) + string(p.Value)
	}
	if got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	if !PairsSorted(nil) || !PairsSorted(pairs[:1]) {
		t.Fatal("trivial slices are sorted")
	}
}

// TestRunIterDamageIsAnError: a resident run whose bytes do not decode — a
// truncated frame, a bad DEFLATE stream, a header that disagrees with the
// run's record count — ends its iteration with an error from Err, never a
// panic and never a pair it did not hold.
func TestRunIterDamageIsAnError(t *testing.T) {
	pairs := []Pair{
		{Key: bytes.Repeat([]byte("k"), 200), Value: []byte("v")}, // 2-byte key varint
		{Key: []byte("tail"), Value: []byte("end")},
		{Key: []byte("word-0001"), Value: bytes.Repeat([]byte{7}, 300)}, // 2-byte value varint
	}
	for _, compressed := range []bool{false, true} {
		good := NewRun(pairs, compressed)
		blob := good.Blob()
		check := func(what string, run *Run) {
			t.Helper()
			it := run.Iter()
			got := Drain(it)
			if it.Err() == nil {
				t.Fatalf("compressed=%v, %s: %d pairs and no error", compressed, what, len(got))
			}
			if !pairsEqual(got, pairs[:len(got)]) {
				t.Fatalf("compressed=%v, %s: delivered pairs the run does not hold", compressed, what)
			}
		}
		for cut := 0; cut < len(blob); cut++ {
			check(fmt.Sprintf("cut at %d/%d", cut, len(blob)), RunFromBlob(blob[:cut], good.Records, good.RawBytes, compressed))
		}
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)/2] ^= 0xFF
		if compressed {
			check("flipped byte", RunFromBlob(flipped, good.Records, good.RawBytes, true))
		}
		check("record count one high", RunFromBlob(blob, good.Records+1, good.RawBytes, compressed))
		check("record count one low", RunFromBlob(blob, good.Records-1, good.RawBytes, compressed))
		check("plain bytes read as compressed", RunFromBlob(Marshal(pairs), good.Records, good.RawBytes, true))

		it := RunFromBlob(blob, good.Records, good.RawBytes, compressed).Iter()
		if got := Drain(it); it.Err() != nil || !pairsEqual(got, pairs) {
			t.Fatalf("compressed=%v: intact run: %d pairs, err %v", compressed, len(got), it.Err())
		}
	}
}
