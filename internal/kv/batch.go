package kv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
)

// Sink is where a map kernel puts the pairs it emits. AppendKV copies key
// and value before it returns — it never retains either slice — so a kernel
// may emit views into its input or encode every pair into one scratch
// buffer it overwrites for the next. A Sink is used by one kernel call at a
// time.
type Sink interface {
	AppendKV(key, value []byte)
}

// EmitFunc adapts a function to a Sink, for a consumer that takes pairs one
// at a time. The function holds the Sink contract: it copies what it keeps.
type EmitFunc func(key, value []byte)

// AppendKV calls f.
func (f EmitFunc) AppendKV(key, value []byte) { f(key, value) }

// pairIdx locates one pair inside a Batch slab: the key starts at off, the
// value follows it immediately. Twelve bytes per record keeps sort swaps and
// partition scatter cheap — moving an index entry never moves payload.
type pairIdx struct {
	off  uint32
	klen uint32
	vlen uint32
}

// Batch is a columnar accumulation buffer for pairs: all key and value
// bytes live in one contiguous slab, with a parallel index slice locating
// each record. It is the batch-kernel currency — map kernels append into a
// Batch, the partitioner permutes only the 12-byte index entries, and a
// sorted index range serializes straight into a Run without touching
// intermediate []Pair storage. Appending is amortized allocation-free
// (slab and index double like any slice), and Reset retains capacity so a
// pooled Batch stops allocating entirely once warm.
//
// A Batch is not safe for concurrent use.
type Batch struct {
	data []byte
	idx  []pairIdx

	// scatter scratch, reused across PartitionRanges calls
	alt    []pairIdx
	parts  []uint32
	bounds []int
	// sort scratch, reused across SortRange calls
	ents, ents2 []sortEnt

	bytes int64
}

// Len returns the number of pairs.
func (b *Batch) Len() int { return len(b.idx) }

// Bytes returns the accumulated payload volume (keys + values).
func (b *Batch) Bytes() int64 { return b.bytes }

// AppendKV copies a key/value pair into the slab.
func (b *Batch) AppendKV(key, value []byte) {
	off := len(b.data)
	if off+len(key)+len(value) > math.MaxUint32 {
		panic("kv: Batch slab exceeds 4GiB")
	}
	b.data = append(b.data, key...)
	b.data = append(b.data, value...)
	b.idx = append(b.idx, pairIdx{off: uint32(off), klen: uint32(len(key)), vlen: uint32(len(value))})
	b.bytes += int64(len(key) + len(value))
}

// Append copies a pair into the slab.
func (b *Batch) Append(p Pair) { b.AppendKV(p.Key, p.Value) }

// Pair returns record i as views aliasing the slab. The views are valid
// until the next Reset; appends never move them logically (slab growth
// copies, but the returned header was captured before).
func (b *Batch) Pair(i int) Pair {
	e := b.idx[i]
	return Pair{
		Key:   b.data[e.off : e.off+e.klen : e.off+e.klen],
		Value: b.data[e.off+e.klen : e.off+e.klen+e.vlen : e.off+e.klen+e.vlen],
	}
}

// Pairs appends views of every record to dst and returns it. The views
// alias the slab and share its lifetime.
func (b *Batch) Pairs(dst []Pair) []Pair {
	if cap(dst)-len(dst) < len(b.idx) {
		grown := make([]Pair, len(dst), len(dst)+len(b.idx))
		copy(grown, dst)
		dst = grown
	}
	for i := range b.idx {
		dst = append(dst, b.Pair(i))
	}
	return dst
}

// Reset empties the batch, retaining slab and index capacity.
func (b *Batch) Reset() {
	b.data = b.data[:0]
	b.idx = b.idx[:0]
	b.bytes = 0
}

// Sort orders the whole batch by key (then value). Only index entries move.
func (b *Batch) Sort() { b.SortRange(0, len(b.idx)) }

// sortEnt is an index entry beside its key's Prefix8: the sort orders
// entries by that integer and reads the slab only where two are equal.
type sortEnt struct {
	kp uint64
	e  pairIdx
}

// radixMin is the shortest range SortRange radix-sorts. Below it, clearing
// and summing the digit histograms costs more than comparison sorting.
const radixMin = 256

// SortRange orders records [lo,hi) by key (then value) in place. It pairs
// each index entry with its key's Prefix8 in batch-owned scratch and sorts
// the entries: a range of radixMin or more is radix-sorted on the prefix
// and then each run of equal prefixes is comparison-sorted on the rest of
// the key and the value; a shorter range is comparison-sorted whole. The
// order is written back into the index.
func (b *Batch) SortRange(lo, hi int) {
	m := hi - lo
	if m < 2 {
		return
	}
	if cap(b.ents) < m {
		b.ents, b.ents2 = make([]sortEnt, m), make([]sortEnt, m)
	}
	ents := b.ents[:m]
	for i, e := range b.idx[lo:hi] {
		ents[i] = sortEnt{kp: Prefix8(b.data[e.off : e.off+e.klen]), e: e}
	}
	data := b.data
	compare := func(x, y sortEnt) int {
		if x.kp != y.kp {
			return cmp.Compare(x.kp, y.kp)
		}
		xk, yk := x.e.off+x.e.klen, y.e.off+y.e.klen
		if c := compareRest(data[x.e.off:xk], data[y.e.off:yk]); c != 0 {
			return c
		}
		return bytes.Compare(data[xk:xk+x.e.vlen], data[yk:yk+y.e.vlen])
	}
	if m < radixMin {
		slices.SortFunc(ents, compare)
	} else {
		ents = radixSort(ents, b.ents2[:m])
		for i := 0; i < m; {
			j := i + 1
			for j < m && ents[j].kp == ents[i].kp {
				j++
			}
			if j-i > 1 {
				slices.SortFunc(ents[i:j], compare)
			}
			i = j
		}
	}
	for i, x := range ents {
		b.idx[lo+i] = x.e
	}
}

// radixSort orders src by kp, stably, using tmp (as long as src) as the
// other buffer, and returns whichever of the two holds the result. It
// counts all eight digits in one pass, then scatters once per digit that
// is not the same in every entry.
func radixSort(src, tmp []sortEnt) []sortEnt {
	var cnt [8][256]int
	for _, x := range src {
		for d := range cnt {
			cnt[d][byte(x.kp>>(8*d))]++
		}
	}
	for d := range cnt {
		c := &cnt[d]
		if c[byte(src[0].kp>>(8*d))] == len(src) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, x := range src {
			k := byte(x.kp >> (8 * d))
			tmp[c[k]] = x
			c[k]++
		}
		src, tmp = tmp, src
	}
	return src
}

// PartitionRanges reorders the index so records are grouped by partition
// (a stable counting-sort scatter: two passes over the index, no payload
// movement) and returns the group boundaries: partition p occupies records
// [bounds[p], bounds[p+1]). The returned slice is scratch owned by the
// batch — valid until the next PartitionRanges call.
func (b *Batch) PartitionRanges(part func(key []byte, n int) int, n int) []int {
	m := len(b.idx)
	if cap(b.parts) < m {
		b.parts = make([]uint32, m)
	}
	parts := b.parts[:m]
	if cap(b.bounds) < n+1 {
		b.bounds = make([]int, n+1)
	}
	bounds := b.bounds[:n+1]
	for i := range bounds {
		bounds[i] = 0
	}
	for i, e := range b.idx {
		p := part(b.data[e.off:e.off+e.klen], n)
		parts[i] = uint32(p)
		bounds[p+1]++
	}
	for p := 0; p < n; p++ {
		bounds[p+1] += bounds[p]
	}
	if cap(b.alt) < m {
		b.alt = make([]pairIdx, m)
	}
	alt := b.alt[:m]
	var cur [64]int
	var cursor []int
	if n <= len(cur) {
		cursor = cur[:n]
	} else {
		cursor = make([]int, n)
	}
	copy(cursor, bounds[:n])
	for i, e := range b.idx {
		p := parts[i]
		alt[cursor[p]] = e
		cursor[p]++
	}
	b.idx, b.alt = alt, b.idx[:0]
	return bounds
}

// RunRange serializes records [lo,hi) — which must already be sorted, e.g.
// by SortRange — directly into a Run, one frame per pair. The encoded size
// is computed exactly up front, so the blob is built in a single allocation
// with no growth copies, and the sortedness re-verification of NewRun is
// skipped: the batch sorted this range itself.
func (b *Batch) RunRange(lo, hi int, compress bool) *Run {
	var raw, enc int64
	for _, e := range b.idx[lo:hi] {
		raw += int64(e.klen) + int64(e.vlen)
		enc += int64(uvarintLen(uint64(e.klen)<<1)) + int64(uvarintLen(uint64(e.vlen)))
	}
	enc += raw + int64(uvarintLen(uint64(hi-lo)))
	blob := make([]byte, 0, enc)
	blob = binary.AppendUvarint(blob, uint64(hi-lo))
	for _, e := range b.idx[lo:hi] {
		blob = binary.AppendUvarint(blob, uint64(e.klen)<<1)
		blob = binary.AppendUvarint(blob, uint64(e.vlen))
		blob = append(blob, b.data[e.off:e.off+e.klen+e.vlen]...)
	}
	return sealRun(blob, hi-lo, raw, compress)
}

// RunCounted serializes a run from counted keys, one frame per key. Records
// [lo,hi) of b are distinct keys, sorted (by SortRange), each with a value
// that is a 4-byte big-endian count n followed by a value v: the key stands
// for n pairs (key, v), and its frame says so. It returns the run and the
// payload of the pairs the run stands for, each pair counted n times.
func (b *Batch) RunCounted(lo, hi int, compress bool) (run *Run, pairBytes int64) {
	var recs int
	var raw, enc int64
	for _, e := range b.idx[lo:hi] {
		n, v := countedValue(b.data[e.off+e.klen : e.off+e.klen+e.vlen])
		recs += n
		raw += int64(e.klen) + int64(len(v))
		pairBytes += int64(n) * (int64(e.klen) + int64(len(v)))
		enc += int64(runFrameLen(int(e.klen), len(v), n))
	}
	enc += int64(uvarintLen(uint64(recs)))
	blob := make([]byte, 0, enc)
	blob = binary.AppendUvarint(blob, uint64(recs))
	for _, e := range b.idx[lo:hi] {
		n, v := countedValue(b.data[e.off+e.klen : e.off+e.klen+e.vlen])
		blob = appendRunFrame(blob, b.data[e.off:e.off+e.klen], v, n)
	}
	return sealRun(blob, recs, raw, compress), pairBytes
}

// countedValue splits a counted key's value into its count and the value
// the count repeats.
func countedValue(h []byte) (n int, v []byte) {
	return int(binary.BigEndian.Uint32(h)), h[4:]
}

// sealRun makes the Run of an encoded blob, compressing it if asked.
func sealRun(blob []byte, records int, raw int64, compress bool) *Run {
	if compress {
		blob = deflate(blob)
	}
	return &Run{blob: blob, Records: records, RawBytes: raw, Compressed: compress}
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
