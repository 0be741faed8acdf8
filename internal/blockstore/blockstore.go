// Package blockstore is the on-disk half of glasswing's distributed file
// story: each worker runs a Store — a directory of input blocks, one file
// each — and the coordinator runs the namespace that says which workers
// hold a replica of which block. Files are chunked into blocks upstream
// (the coordinator's SplitBlocks), pushed to their replica holders over the
// cluster's framed TCP transport at job start, and read back whole at map
// time, either locally (the block lives on the mapper's own disk — the Fig
// 3(d) locality case) or by a remote holder that reads it and ships it in
// one frame.
//
// The package itself is deliberately transport-free: it knows a directory
// and atomic block files. Replication placement is a pure function (Place)
// so the coordinator can journal it; the wire messages that move blocks
// live in internal/dist.
package blockstore

import (
	"fmt"
	"os"
	"path/filepath"
)

// Store is one worker's slice of the distributed block store: a directory
// holding block files. The directory is the index: a block is held exactly
// when its file exists, so a store reopened on the same directory reads the
// blocks already there.
type Store struct {
	dir string
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08d.blk", id))
}

// Put stores one block atomically: the bytes land in a temp file that is
// renamed into place, so a concurrent reader sees either the whole block or
// no block, and a crashed ingest never leaves a torn one.
func (s *Store) Put(id int, data []byte) error {
	f, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), s.path(id))
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("blockstore: %w", err)
	}
	return nil
}

// ReadAll reads block id whole, in one read of its file. Map kernels parse
// whole blocks, so the per-task high-water mark is one block regardless of
// dataset size. A block not held is an error.
func (s *Store) ReadAll(id int) ([]byte, error) {
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	return data, nil
}

// Place computes the namespace's replica placement: block b's holders are
// the `replication` workers starting at b%nWorkers — the same round-robin
// the simulated DFS uses, so the dist scheduler's existing b%n task deal is
// automatically a local read for every block's first replica, and the Fig
// 3(d) locality preference degrades gracefully (work stealing or a dead
// holder falls back to a remote read).
func Place(nBlocks, nWorkers, replication int) [][]int {
	if nWorkers < 1 {
		return nil
	}
	if replication < 1 {
		replication = 1
	}
	if replication > nWorkers {
		replication = nWorkers
	}
	holders := make([][]int, nBlocks)
	for b := range holders {
		hs := make([]int, replication)
		for j := range hs {
			hs[j] = (b + j) % nWorkers
		}
		holders[b] = hs
	}
	return holders
}
