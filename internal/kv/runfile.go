package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// A run's encoded bytes live in memory or in a file. The file is the run's
// blob byte for byte — the Marshal layout, DEFLATEd when Run.Compressed —
// so a run goes to disk and comes back without a pair being decoded, and
// this file is the only code that knows the layout. Which runs are filed,
// when, and under what names is RunStore's business (runstore.go).

// Spill writes the run's encoded bytes to path and drops them from memory;
// the run stays usable through Open and Load. On error nothing is left at
// path and the run is still resident. Iterators taken before the spill keep
// the old bytes alive and stay valid.
func (r *Run) Spill(path string) error {
	if err := os.WriteFile(path, r.blob, 0o666); err != nil {
		os.Remove(path)
		return fmt.Errorf("kv: spilling run: %w", err)
	}
	r.path, r.filed, r.blob = path, int64(len(r.blob)), nil
	return nil
}

// Path names the file holding a spilled run's bytes ("" while resident).
func (r *Run) Path() string { return r.path }

// Load returns the run with its bytes in memory: r itself if resident,
// otherwise a new run read whole from the file, whose size must be the one
// Spill wrote.
func (r *Run) Load() (*Run, error) {
	if r.path == "" {
		return r, nil
	}
	blob, err := os.ReadFile(r.path)
	if err != nil {
		return nil, fmt.Errorf("kv: reloading filed run: %w", err)
	}
	if int64(len(blob)) != r.filed {
		return nil, fmt.Errorf("kv: reloading filed run: %s holds %d bytes, want %d", r.path, len(blob), r.filed)
	}
	return RunFromBlob(blob, r.Records, r.RawBytes, r.Compressed), nil
}

// FileIter streams a filed run's pairs off disk in key order, as views into
// the chunks it reads (see Reader: a pair stays valid while referenced, and
// a chunk no pair references is garbage). A damaged file ends the
// iteration, possibly early; callers must check Err once the consumer has
// drained it, and Close it either way.
type FileIter struct {
	f    *os.File
	fl   io.ReadCloser // the pooled decompressor of a compressed run
	r    *Reader       // nil once closed
	left int           // pairs the run still owes
	err  error
}

// Open streams a filed run back through bounded chunks.
func (r *Run) Open() (*FileIter, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("kv: opening filed run: %w", err)
	}
	// A plain file is the decoded stream, so its chunks stop at its end and
	// a run smaller than a chunk is one allocation. A DEFLATEd one decodes
	// to at most the payload plus two length varints per pair and the
	// count: the first chunk is no bigger than that.
	it := &FileIter{f: f, left: r.Records}
	if r.Compressed {
		size := r.RawBytes + int64(r.Records+1)*2*binary.MaxVarintLen32
		it.fl = newInflater(f)
		it.r = newReaderSize(it.fl, int(min(size+1, readerChunk)), -1)
	} else {
		it.r = newReaderSize(f, readerChunk, r.filed)
	}
	n, err := it.r.uvarint()
	if err == nil && n != uint64(r.Records) {
		err = fmt.Errorf("holds %d pairs, want %d", n, r.Records)
	}
	if err != nil {
		it.Close()
		return nil, fmt.Errorf("kv: opening filed run %s: %w", r.path, unexpected(err))
	}
	return it, nil
}

// Next implements Iterator. It reads one frame past the last pair: the
// stream must end there, and only reading on makes a DEFLATE stream that
// lost its tail say so.
func (it *FileIter) Next() (Pair, bool) {
	if it.err != nil || it.r == nil {
		return Pair{}, false
	}
	p, err := it.r.Read()
	switch {
	case err == nil && it.left > 0:
		it.left--
		return p, true
	case err == nil:
		it.err = fmt.Errorf("kv: filed run %s holds data past its last pair", it.f.Name())
	case it.left > 0 || !errors.Is(err, io.EOF):
		it.err = fmt.Errorf("kv: streaming filed run %s with %d pairs to go: %w", it.f.Name(), it.left, unexpected(err))
	}
	return Pair{}, false
}

// Err reports the error that cut the iteration short (nil if none did).
func (it *FileIter) Err() error { return it.err }

// Close releases the file descriptor and the decompressor; Next reports
// the end from then on.
func (it *FileIter) Close() error {
	if it.fl != nil {
		inflaters.Put(it.fl)
		it.fl = nil
	}
	it.r = nil
	return it.f.Close()
}
