package kv

import (
	"bytes"
	"cmp"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Run is a sorted batch of pairs in serialized (and optionally compressed)
// form — the unit in which Glasswing stores intermediate data in its
// partition cache, on disk, and on the wire (the paper stores all
// intermediate Partitions "in a serialized and compressed form", §III-B).
// A run is compressed once, where it is built; this package is the only
// code that knows the compressed form.
type Run struct {
	blob       []byte // nil once the run is filed
	path       string // the spill file holding it; "" while resident
	off, filed int64  // its section of that file
	Records    int    // the pairs the run stands for
	RawBytes   int64  // the payload its frames hold, each frame's pair once
	Compressed bool
}

// A DEFLATE compressor holds about a megabyte of tables and a decompressor
// tens of kilobytes, against runs of a few kilobytes each: both are pooled,
// so a run pays for its bytes, not for building that state.
var (
	deflaters = sync.Pool{New: func() any {
		w, err := flate.NewWriter(nil, flate.BestSpeed)
		if err != nil {
			panic(fmt.Sprintf("kv: flate writer: %v", err))
		}
		return w
	}}
	inflaters sync.Pool // io.ReadCloser from flate.NewReader
)

// deflate compresses blob with DEFLATE at BestSpeed. Compression failures
// on an in-memory buffer are programming errors, hence the panics.
func deflate(blob []byte) []byte {
	var buf bytes.Buffer
	w := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(w)
	w.Reset(&buf)
	if _, err := w.Write(blob); err != nil {
		panic(fmt.Sprintf("kv: compressing run: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("kv: closing compressor: %v", err))
	}
	return buf.Bytes()
}

// inflate decompresses a DEFLATE blob into one allocation when the stream
// is no longer than sizeHint, growing the buffer otherwise.
func inflate(blob []byte, sizeHint int) ([]byte, error) {
	rd := newInflater(bytes.NewReader(blob))
	defer inflaters.Put(rd)
	buf := bytes.NewBuffer(make([]byte, 0, sizeHint+bytes.MinRead))
	_, err := buf.ReadFrom(rd)
	return buf.Bytes(), err
}

// newInflater returns a pooled decompressor reading r; put it back in
// inflaters once done with it.
func newInflater(r io.Reader) io.ReadCloser {
	if rd, ok := inflaters.Get().(io.ReadCloser); ok {
		rd.(flate.Resetter).Reset(r, nil)
		return rd
	}
	return flate.NewReader(r)
}

// NewRun serializes sorted pairs into a run, one frame per pair. It panics
// if the pairs are not sorted — runs exist to be merged.
func NewRun(pairs []Pair, compress bool) *Run {
	if !PairsSorted(pairs) {
		panic("kv: NewRun on unsorted pairs")
	}
	var raw int64
	size := uvarintLen(uint64(len(pairs)))
	for _, p := range pairs {
		raw += p.Size()
		size += runFrameLen(len(p.Key), len(p.Value), 1)
	}
	blob := binary.AppendUvarint(make([]byte, 0, size), uint64(len(pairs)))
	for _, p := range pairs {
		blob = appendRunFrame(blob, p.Key, p.Value, 1)
	}
	return sealRun(blob, len(pairs), raw, compress)
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

// RunFromBlob reconstructs a run from its encoded bytes and metadata — a
// run received from a peer, or read back from its spill file. The blob is
// retained, not copied, and the run takes ownership: the caller must not
// reuse or mutate it afterwards. Nothing is checked here: bytes that do not
// decode fail the run's iterator, not this call.
func RunFromBlob(blob []byte, records int, rawBytes int64, compressed bool) *Run {
	return &Run{blob: blob, Records: records, RawBytes: rawBytes, Compressed: compressed}
}

// decoded returns the run's frames behind their count: the blob itself, or
// for a compressed run one inflated copy, sized at decodedSize when that
// claim is plausible for the blob's length.
func (r *Run) decoded() ([]byte, error) {
	if !r.Compressed {
		return r.blob, nil
	}
	hint := r.decodedSize()
	if limit := maxDecoded(int64(len(r.blob))); hint < 0 || hint > limit {
		hint = limit // a damaged header must not size the buffer
	}
	dec, err := inflate(r.blob, int(hint))
	if err != nil {
		return nil, fmt.Errorf("kv: decompressing run: %w", err)
	}
	return dec, nil
}

// decodedSize is the decoded length the run's header suggests: its frames'
// payload, two bytes of lengths per frame, and the count. A run has no more
// frames than pairs, nor — but for empty pairs — than payload bytes, so a
// run whose frames stand for many pairs is not sized by its pairs.
func (r *Run) decodedSize() int64 {
	return r.RawBytes + 2*min(int64(r.Records), r.RawBytes) + binary.MaxVarintLen64
}

// maxDecoded bounds the decoded length that a compressed run's header may
// size a buffer at, from the stored bytes: a damaged header must not size
// one, and DEFLATE rarely shrinks a run's frames 64-fold.
func maxDecoded(stored int64) int64 { return 64*stored + 64 }

// header reads a decoded run's pair count, which must be the run's Records.
func (r *Run) header(blob []byte) (rest []byte, err error) {
	count, n := binary.Uvarint(blob)
	if n <= 0 || count != uint64(r.Records) {
		return nil, fmt.Errorf("kv: run header corrupt (%d bytes, want %d pairs)", len(blob), r.Records)
	}
	return blob[n:], nil
}

// Pairs decodes the run back into sorted pairs, a frame's pair once per
// pair it stands for. For an uncompressed run the pairs alias the run's
// blob.
func (r *Run) Pairs() ([]Pair, error) {
	it := r.Iter()
	pairs := Drain(it)
	return pairs, it.Err()
}

// Iter returns an iterator that decodes the run's frames in place: its
// pairs are views into the run's bytes (into one inflated copy for a
// compressed run), so iterating allocates per run, not per pair. A run that
// does not decode — a bad DEFLATE stream, a header that disagrees with
// Records, a damaged frame, a frame that stands for more pairs than the
// run still owes — ends the iteration, possibly before the first pair;
// callers check Err once the consumer has drained it.
func (r *Run) Iter() *RunIter {
	blob, err := r.decoded()
	if err == nil {
		blob, err = r.header(blob)
	}
	if err != nil {
		return &RunIter{err: err}
	}
	return &RunIter{rest: blob, left: r.Records}
}

// RunIter walks a resident run's frames.
type RunIter struct {
	rest []byte
	left int  // the pairs rest's frames owe
	cur  Pair // the last frame's pair, which Next returns rep more times
	rep  int
	err  error
}

// Next implements Iterator: a frame that stands for n pairs is n calls.
func (it *RunIter) Next() (Pair, bool) {
	if it.rep > 0 {
		it.rep--
		return it.cur, true
	}
	p, n, ok := it.nextFrame()
	if n > 1 {
		it.cur, it.rep = p, n-1
	}
	return p, ok
}

// nextFrame returns the next frame's pair and the pairs it stands for (the
// rest of them, where Next took some).
func (it *RunIter) nextFrame() (Pair, int, bool) {
	if it.rep > 0 {
		n := it.rep
		it.rep = 0
		return it.cur, n, true
	}
	if it.left == 0 {
		return Pair{}, 0, false
	}
	p, size := splitShortFrame(it.rest)
	n, err := 1, error(nil)
	if size == 0 {
		p, n, size, _, err = splitLongFrame(it.rest)
	}
	switch {
	case size == 0:
		it.err = fmt.Errorf("kv: run frame corrupt with %d pairs to go: %w", it.left, cmp.Or(err, io.ErrUnexpectedEOF))
	case n > it.left:
		it.err = fmt.Errorf("kv: run frame stands for %d pairs with %d to go", n, it.left)
	default:
		it.rest, it.left = it.rest[size:], it.left-n
		return p, n, true
	}
	it.left = 0
	return Pair{}, 0, false
}

// Err reports the error that cut the iteration short (nil if none did).
func (it *RunIter) Err() error { return it.err }

// owed is the pairs the run still owes, which a damaged header cannot put
// past the frames left: every frame takes two bytes at least. A run whose
// frames stand for many pairs each owes more than this.
func (it *RunIter) owed() int { return it.rep + min(it.left, len(it.rest)/2) }

// MergeRuns merges several resident runs into one, encoding the merge
// straight into the new run's blob, one frame per pair.
func MergeRuns(runs []*Run, compress bool) *Run {
	iters := make([]Iterator, len(runs))
	records, size := 0, int64(binary.MaxVarintLen64)
	for i, r := range runs {
		iters[i] = r.Iter()
		records += r.Records
		size += r.decodedSize()
	}
	blob := binary.AppendUvarint(make([]byte, 0, size), uint64(records))
	var n int
	var raw int64
	m := Merge(iters...)
	for p, ok := m.Next(); ok; p, ok = m.Next() {
		blob = appendRunFrame(blob, p.Key, p.Value, 1)
		n++
		raw += p.Size()
	}
	if n != records {
		panic(fmt.Sprintf("kv: MergeRuns: runs hold %d pairs, their headers say %d", n, records))
	}
	return sealRun(blob, records, raw, compress)
}
