package blockstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestPutOpenRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range []int{0, 1, 256<<10 + 12345, 1 << 20} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + id)
		}
		if err := s.Put(id, data); err != nil {
			t.Fatal(err)
		}
		got, err := s.ReadAll(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %d: read %d bytes back, want %d (content equal: %v)", id, len(got), len(data), bytes.Equal(got, data))
		}
	}
	// A second put of a block replaces it whole.
	if err := s.Put(1, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadAll(1); err != nil || string(got) != "again" {
		t.Fatalf("ReadAll(1) after re-put = %q, %v", got, err)
	}
}

func TestOpenMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAll(9); err == nil {
		t.Fatal("ReadAll(9) on empty store: want error")
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "blocks")); err == nil {
		t.Fatal("Open under a regular file: want error")
	}
}

// TestReopenIndexesExistingBlocks: the directory is the index, so a store
// reopened on it reads the blocks already on disk, and a stray temp file
// from a crashed put is no block.
func TestReopenIndexesExistingBlocks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(0, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(7, []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "put-junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]string{0: "alpha", 7: "beta"} {
		if b, err := s2.ReadAll(id); err != nil || string(b) != want {
			t.Fatalf("reopened ReadAll(%d) = %q, %v; want %q", id, b, err, want)
		}
	}
	if _, err := s2.ReadAll(1); err == nil {
		t.Fatal("reopened ReadAll(1): want error for a block never put")
	}
}

func TestPlace(t *testing.T) {
	holders := Place(5, 3, 2)
	want := [][]int{{0, 1}, {1, 2}, {2, 0}, {0, 1}, {1, 2}}
	for b, hs := range holders {
		if len(hs) != len(want[b]) {
			t.Fatalf("block %d: %v, want %v", b, hs, want[b])
		}
		for j := range hs {
			if hs[j] != want[b][j] {
				t.Fatalf("block %d: %v, want %v", b, hs, want[b])
			}
		}
	}
	// Replication is clamped to the cluster size.
	if hs := Place(1, 2, 5)[0]; len(hs) != 2 {
		t.Fatalf("clamped replication: %v, want 2 holders", hs)
	}
	if hs := Place(1, 4, 0)[0]; len(hs) != 1 {
		t.Fatalf("zero replication: %v, want 1 holder", hs)
	}
}
