package kv

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// Run is a sorted batch of pairs in serialized (and optionally compressed)
// form — the unit in which Glasswing stores intermediate data in its
// partition cache, on disk, and on the wire (the paper stores all
// intermediate Partitions "in a serialized and compressed form", §III-B).
type Run struct {
	blob       []byte // nil once Spill has moved the bytes to a file
	path       string // that file; "" while resident
	filed      int64  // its size
	Records    int
	RawBytes   int64 // payload volume before encoding
	Compressed bool

	// view marks a run whose blob aliases a caller-owned buffer (e.g. a
	// network receive frame). Retain upgrades a view to an owning run.
	view bool
}

// Deflate compresses blob with DEFLATE at BestSpeed. Compression failures
// on an in-memory buffer are programming errors, hence the panics.
func Deflate(blob []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		panic(fmt.Sprintf("kv: flate writer: %v", err))
	}
	if _, err := w.Write(blob); err != nil {
		panic(fmt.Sprintf("kv: compressing run: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("kv: closing compressor: %v", err))
	}
	return buf.Bytes()
}

// Inflate decompresses a DEFLATE blob.
func Inflate(blob []byte) ([]byte, error) {
	rd := flate.NewReader(bytes.NewReader(blob))
	dec, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("kv: inflating: %w", err)
	}
	if err := rd.Close(); err != nil {
		return nil, err
	}
	return dec, nil
}

// NewRun serializes sorted pairs into a run. It panics if the pairs are not
// sorted — runs exist to be merged.
func NewRun(pairs []Pair, compress bool) *Run {
	if !PairsSorted(pairs) {
		panic("kv: NewRun on unsorted pairs")
	}
	var raw int64
	for _, p := range pairs {
		raw += p.Size()
	}
	blob := Marshal(pairs)
	if compress {
		blob = Deflate(blob)
	}
	return &Run{blob: blob, Records: len(pairs), RawBytes: raw, Compressed: compress}
}

// StoredBytes returns the encoded size: what the run costs on disk and on
// the network.
func (r *Run) StoredBytes() int64 {
	if r.path != "" {
		return r.filed
	}
	return int64(len(r.blob))
}

// Blob exposes the encoded bytes for transport (nil for a filed run; Load
// brings them back). Callers must not mutate the returned slice — it is
// the run's backing store.
func (r *Run) Blob() []byte { return r.blob }

// RunFromBlob reconstructs a run received over the wire from its encoded
// bytes and metadata. The blob is retained, not copied, and the run takes
// ownership: the caller must not reuse or mutate it afterwards.
func RunFromBlob(blob []byte, records int, rawBytes int64, compressed bool) *Run {
	return &Run{blob: blob, Records: records, RawBytes: rawBytes, Compressed: compressed}
}

// NewRunView wraps encoded bytes without copying or taking ownership: the
// run aliases blob, which the caller may later overwrite (a pooled receive
// buffer, a reused frame). A view is valid only until its backing buffer
// is reused; call Retain to keep it beyond that point. Pairs decoded from
// an uncompressed view alias the same buffer and share its lifetime.
func NewRunView(blob []byte, records int, rawBytes int64, compressed bool) *Run {
	return &Run{blob: blob, Records: records, RawBytes: rawBytes, Compressed: compressed, view: true}
}

// Owned reports whether the run owns its backing bytes (false for a view
// that has not been retained).
func (r *Run) Owned() bool { return !r.view }

// Retain upgrades a view into an owning run by copying its blob out of the
// caller's buffer — copy-on-retain. It is a no-op on runs that already own
// their bytes, so it is always safe to call before storing a run whose
// provenance is unknown.
func (r *Run) Retain() {
	if r.view {
		r.blob = append([]byte(nil), r.blob...)
		r.view = false
	}
}

// Pairs decodes the run back into sorted pairs. For an uncompressed run
// the pairs alias the run's blob (and, for an unretained view, the buffer
// behind it).
func (r *Run) Pairs() ([]Pair, error) {
	blob := r.blob
	if r.Compressed {
		dec, err := Inflate(blob)
		if err != nil {
			return nil, fmt.Errorf("kv: decompressing run: %w", err)
		}
		blob = dec
	}
	return Unmarshal(blob)
}

// Iter returns an iterator that decodes the run's frames in place: its
// pairs are views into the run's bytes (into one inflated copy for a
// compressed run), so iterating allocates per run, not per pair. A run that
// fails to decode is a corrupted simulation artifact, not a recoverable
// condition: Iter panics on a bad header or DEFLATE stream, Next on a bad
// frame.
func (r *Run) Iter() Iterator {
	blob := r.blob
	if r.Compressed {
		dec, err := Inflate(blob)
		if err != nil {
			panic(fmt.Errorf("kv: decompressing run: %w", err))
		}
		blob = dec
	}
	count, n := binary.Uvarint(blob)
	if n <= 0 || count > uint64(len(blob)) {
		panic(fmt.Errorf("kv: run header corrupt (%d bytes)", len(blob)))
	}
	return &runIter{rest: blob[n:], left: int(count)}
}

// runIter walks a resident run's frames.
type runIter struct {
	rest []byte
	left int
}

// Next implements Iterator.
func (it *runIter) Next() (Pair, bool) {
	if it.left == 0 {
		return Pair{}, false
	}
	p, n, _, err := splitFrame(it.rest)
	if n == 0 {
		panic(fmt.Errorf("kv: run frame corrupt with %d pairs to go: %v", it.left, err))
	}
	it.rest, it.left = it.rest[n:], it.left-1
	return p, true
}

// MergeRuns merges several resident runs into one, encoding the merge
// straight into the new run's blob.
func MergeRuns(runs []*Run, compress bool) *Run {
	iters := make([]Iterator, len(runs))
	records, size := 0, int64(binary.MaxVarintLen64)
	for i, r := range runs {
		iters[i] = r.Iter()
		records += r.Records
		size += r.RawBytes + 2*int64(r.Records)
	}
	blob := binary.AppendUvarint(make([]byte, 0, size), uint64(records))
	var n int
	var raw int64
	m := Merge(iters...)
	for p, ok := m.Next(); ok; p, ok = m.Next() {
		blob = appendFrame(blob, p)
		n++
		raw += p.Size()
	}
	if n != records {
		panic(fmt.Sprintf("kv: MergeRuns: runs hold %d pairs, their headers say %d", n, records))
	}
	if compress {
		blob = Deflate(blob)
	}
	return &Run{blob: blob, Records: records, RawBytes: raw, Compressed: compress}
}
