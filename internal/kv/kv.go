// Package kv provides the key/value machinery shared by all three MapReduce
// engines in this repository: pair representation, a compact length-prefixed
// wire/disk encoding with optional DEFLATE compression, the columnar Batch
// every engine partitions and sorts in, k-way merge of sorted runs, and key
// grouping for reduction.
//
// Keys are ordered by bytes.Compare, matching Hadoop's BytesWritable and the
// paper's TeraSort semantics.
package kv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
)

// Pair is one key/value record.
type Pair struct {
	Key   []byte
	Value []byte
}

// Size returns the payload size in bytes (key + value).
func (p Pair) Size() int64 { return int64(len(p.Key) + len(p.Value)) }

// Compare orders pairs by key, then by value for determinism.
func (p Pair) Compare(q Pair) int {
	if c := bytes.Compare(p.Key, q.Key); c != 0 {
		return c
	}
	return bytes.Compare(p.Value, q.Value)
}

// Hash returns a stable 32-bit FNV-1a hash of the key, used for
// partitioning. Applications may override partitioning with their own
// function (the paper's Configuration API allows overloading the hash).
func Hash(key []byte) uint32 {
	h := fnv.New32a()
	h.Write(key)
	return h.Sum32()
}

// Partition maps a key to one of n partitions.
func Partition(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	return int(Hash(key) % uint32(n))
}

// SortPairs orders pairs by key (then value) in place: the order a
// kv.Batch sorts in, for a reference or a test that holds []Pair.
// slices.SortFunc on the method expression avoids the closure state and
// interface boxing of sort.Slice.
func SortPairs(pairs []Pair) { slices.SortFunc(pairs, Pair.Compare) }

// PairsSorted reports whether pairs are in key-then-value order.
func PairsSorted(pairs []Pair) bool { return slices.IsSortedFunc(pairs, Pair.Compare) }

// Marshal encodes pairs as varint-length-prefixed frames:
// uvarint(count), then per pair uvarint(len(key)), uvarint(len(value)),
// key bytes, value bytes. The blob is allocated once, at its exact length.
func Marshal(pairs []Pair) []byte {
	return AppendMarshal(make([]byte, 0, MarshalSize(pairs)), pairs)
}

// MarshalSize is the exact length of Marshal(pairs).
func MarshalSize(pairs []Pair) int {
	n := uvarintLen(uint64(len(pairs)))
	for _, p := range pairs {
		n += uvarintLen(uint64(len(p.Key))) + uvarintLen(uint64(len(p.Value))) + len(p.Key) + len(p.Value)
	}
	return n
}

// AppendMarshal appends Marshal(pairs) to b: a caller that sized b with
// MarshalSize lays the pairs out in place, with no blob built first.
func AppendMarshal(b []byte, pairs []Pair) []byte {
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = appendFrame(b, p)
	}
	return b
}

// appendFrame appends p's frame to b.
func appendFrame(b []byte, p Pair) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Key)))
	b = binary.AppendUvarint(b, uint64(len(p.Value)))
	b = append(b, p.Key...)
	return append(b, p.Value...)
}

// Unmarshal decodes a blob produced by Marshal. The pairs alias blob.
func Unmarshal(blob []byte) ([]Pair, error) {
	count, n := binary.Uvarint(blob)
	if n <= 0 {
		return nil, fmt.Errorf("kv: reading pair count: %w", cmp.Or(uvarintErr(n), io.ErrUnexpectedEOF))
	}
	// Every pair carries at least two framing bytes, so a count beyond the
	// blob size is corrupt; rejecting it here also bounds the preallocation
	// against hostile counts.
	if count > uint64(len(blob)) {
		return nil, fmt.Errorf("kv: pair count %d exceeds blob size %d", count, len(blob))
	}
	pairs := make([]Pair, 0, count)
	rest := blob[n:]
	for i := uint64(0); i < count; i++ {
		p, n, err := splitFrame(rest)
		if n == 0 {
			return nil, fmt.Errorf("kv: pair %d overruns blob: %w", i, cmp.Or(err, io.ErrUnexpectedEOF))
		}
		pairs = append(pairs, p)
		rest = rest[n:]
	}
	return pairs, nil
}

// splitFrame decodes the Marshal frame at the head of b — uvarint(len(key)),
// uvarint(len(value)), key, value — and returns its pair, as views into b
// capped at their own length, and the frame's length n. If b holds only a
// prefix of the frame, n is 0.
func splitFrame(b []byte) (p Pair, n int, err error) {
	kl, i := binary.Uvarint(b)
	if i <= 0 {
		return Pair{}, 0, uvarintErr(i)
	}
	vl, j := binary.Uvarint(b[i:])
	if j <= 0 {
		return Pair{}, 0, uvarintErr(j)
	}
	if kl > maxFrameLen || vl > maxFrameLen {
		return Pair{}, 0, fmt.Errorf("kv: implausible frame lengths %d/%d", kl, vl)
	}
	k, v := i+j, i+j+int(kl)
	n = v + int(vl)
	if len(b) < n {
		return Pair{}, 0, nil
	}
	return Pair{Key: b[k:v:v], Value: b[v:n:n]}, n, nil
}
