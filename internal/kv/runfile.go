package kv

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// A filed run is a section of a spill file: the run's blob byte for byte —
// its count and frames, DEFLATEd when Run.Compressed — appended after the runs
// filed before it. A run goes to disk and comes back without a pair being
// decoded, and this file is the only code that knows the layout. Which runs
// share a file, when they are filed and under what names is RunStore's
// business (runstore.go).

// fileAt writes the run's encoded bytes to f at off, the end of the runs
// already filed there, and drops them from memory; the run stays usable
// through Stream and Load. On error f is cut back to off and the run is
// still resident. Iterators taken before filing keep the old bytes alive
// and stay valid.
func (r *Run) fileAt(f *os.File, off int64) error {
	if _, err := f.WriteAt(r.blob, off); err != nil {
		_ = f.Truncate(off) // a failed cut leaves bytes the next append at off overwrites
		return fmt.Errorf("kv: spilling run: %w", err)
	}
	r.path, r.off, r.filed, r.blob = f.Name(), off, int64(len(r.blob)), nil
	return nil
}

// Path names the spill file holding a filed run's bytes ("" while
// resident). The runs filed in one file lie end to end in filing order.
func (r *Run) Path() string { return r.path }

// Load returns the run with its bytes in memory: r itself if resident,
// otherwise a new run read from its section of the file. A section that
// does not read back whole, or does not decode to exactly the run's pairs,
// is an error, so a damaged run is caught where it is read, not where it
// is merged.
func (r *Run) Load() (*Run, error) {
	if r.path == "" {
		return r, nil
	}
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("kv: reloading filed run: %w", err)
	}
	defer f.Close()
	blob := make([]byte, r.filed)
	if _, err := f.ReadAt(blob, r.off); err != nil {
		return nil, fmt.Errorf("kv: reloading filed run from %s: %w", r.path, unexpected(err))
	}
	back := RunFromBlob(blob, r.Records, r.RawBytes, r.Compressed)
	it := back.Iter()
	for _, _, ok := it.nextFrame(); ok; _, _, ok = it.nextFrame() {
	}
	switch {
	case it.err != nil:
		return nil, fmt.Errorf("kv: reloading filed run from %s: %w", r.path, it.err)
	case len(it.rest) > 0:
		return nil, fmt.Errorf("kv: reloading filed run from %s: data past its last pair", r.path)
	}
	return back, nil
}

// FileIter streams a filed run's pairs off disk in key order, as views into
// the chunks it reads (see frameReader: a pair stays valid while
// referenced, and a chunk no pair references is garbage). A damaged section
// ends the iteration, possibly early; callers must check Err once the
// consumer has drained it, and Close it either way.
type FileIter struct {
	path string
	fl   io.ReadCloser // the pooled decompressor of a compressed run
	r    *frameReader  // nil once closed
	left int           // pairs the run's unread frames owe
	most int           // the most frames its section's bytes can decode to
	cur  Pair          // the last frame's pair, which Next returns rep more times
	rep  int
	err  error
}

// Stream streams a filed run back through bounded chunks, reading its
// section of f — the file at Path, which the caller opens once for every
// run filed in it and closes after their iterators.
func (r *Run) Stream(f io.ReaderAt) (*FileIter, error) {
	sec := io.NewSectionReader(f, r.off, r.filed)
	// A plain section is the decoded stream, so its chunks stop at its end
	// and a run smaller than a chunk is one allocation. A DEFLATEd one
	// decodes to about decodedSize: the first chunk is no bigger than that.
	it := &FileIter{path: r.path, left: r.Records, most: int(r.filed / 2)}
	if r.Compressed {
		it.most = int(maxDecoded(r.filed) / 2)
		it.fl = newInflater(sec)
		it.r = newFrameReader(it.fl, int(min(r.decodedSize()+1, readerChunk)), -1)
	} else {
		it.r = newFrameReader(sec, readerChunk, r.filed)
	}
	n, err := it.r.uvarint()
	if err == nil && n != uint64(r.Records) {
		err = fmt.Errorf("holds %d pairs, want %d", n, r.Records)
	}
	if err != nil {
		it.Close()
		return nil, fmt.Errorf("kv: opening filed run in %s: %w", r.path, unexpected(err))
	}
	return it, nil
}

// Next implements Iterator: a frame that stands for n pairs is n calls.
func (it *FileIter) Next() (Pair, bool) {
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
// rest of them, where Next took some). It reads one frame past the last
// pair: the section must end there, and only reading on makes a DEFLATE
// stream that lost its tail say so.
func (it *FileIter) nextFrame() (Pair, int, bool) {
	if it.rep > 0 {
		n := it.rep
		it.rep = 0
		return it.cur, n, true
	}
	if it.err != nil || it.r == nil {
		return Pair{}, 0, false
	}
	p, n, err := it.r.read()
	switch {
	case err == nil && n <= it.left:
		it.left -= n
		return p, n, true
	case err == nil && it.left > 0:
		it.err = fmt.Errorf("kv: filed run in %s has a frame of %d pairs with %d to go", it.path, n, it.left)
	case err == nil:
		it.err = fmt.Errorf("kv: filed run in %s holds data past its last pair", it.path)
	case it.left > 0 || !errors.Is(err, io.EOF):
		it.err = fmt.Errorf("kv: streaming filed run in %s with %d pairs to go: %w", it.path, it.left, unexpected(err))
	}
	return Pair{}, 0, false
}

// Err reports the error that cut the iteration short (nil if none did).
func (it *FileIter) Err() error { return it.err }

// owed is the pairs the run still owes, which a damaged header cannot put
// past the frames its section decodes to: every frame takes two bytes at
// least. A run whose frames stand for many pairs each owes more than this.
func (it *FileIter) owed() int { return it.rep + min(it.left, it.most) }

// Close releases the decompressor; Next reports the end from then on. The
// file stays open: it is the caller's.
func (it *FileIter) Close() {
	if it.fl != nil {
		inflaters.Put(it.fl)
		it.fl = nil
	}
	it.r = nil
}
