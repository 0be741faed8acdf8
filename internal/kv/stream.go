package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// maxFrameLen guards against decoding absurd lengths from corrupt streams.
const maxFrameLen = 1 << 30

// Reader streams pairs from an io.Reader holding varint-length-prefixed
// frames (the Marshal layout past its leading count). Read returns io.EOF
// at a clean end of stream and io.ErrUnexpectedEOF (or a framing error) on
// truncation.
type Reader struct {
	r *bufio.Reader
}

// NewReader returns a streaming pair reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Read returns the next pair. The returned slices are freshly allocated
// and safe to retain.
func (r *Reader) Read() (Pair, error) {
	kl, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Pair{}, io.EOF
		}
		return Pair{}, fmt.Errorf("kv: reading key length: %w", err)
	}
	vl, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Pair{}, fmt.Errorf("kv: reading value length: %w", unexpected(err))
	}
	if kl > maxFrameLen || vl > maxFrameLen {
		return Pair{}, fmt.Errorf("kv: implausible frame lengths %d/%d", kl, vl)
	}
	key, err := readCapped(r.r, kl)
	if err != nil {
		return Pair{}, fmt.Errorf("kv: reading key: %w", unexpected(err))
	}
	val, err := readCapped(r.r, vl)
	if err != nil {
		return Pair{}, fmt.Errorf("kv: reading value: %w", unexpected(err))
	}
	return Pair{Key: key, Value: val}, nil
}

// readCapped reads exactly n bytes, growing the buffer in bounded chunks.
// A corrupt or truncated stream whose length prefix claims a huge frame
// (network streams are untrusted input — a hostile 5-byte prefix can claim
// a gigabyte) then fails with io.ErrUnexpectedEOF after at most one chunk
// of over-allocation instead of committing the full claimed length up
// front.
func readCapped(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 64 << 10
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, chunk)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for uint64(len(buf)) < n {
		step := n - uint64(len(buf))
		if step > chunk {
			step = chunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
