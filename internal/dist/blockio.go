package dist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"glasswing/internal/blockstore"
)

// This file is the worker's half of the distributed block store: the
// scratch directory holding its replicas and spill files, ingest of
// coordinator-pushed blocks, and the local-read / remote-streaming paths a
// Ref map task resolves its input through. The coordinator's half
// (placement, namespace journaling, dispatch refs) lives in coordinator.go.

// workDir lazily creates this worker's scratch directory (under
// Tuning.WorkDir, or the OS temp dir). Jobs that never spill and never use
// the block store never touch the disk. Safe from any goroutine, including
// a store spilling inside step under w.mu: wdMu is a leaf lock.
func (w *worker) workDir() (string, error) {
	w.wdMu.Lock()
	defer w.wdMu.Unlock()
	if w.wdErr != nil {
		return "", w.wdErr
	}
	if w.workdir != "" {
		return w.workdir, nil
	}
	dir, err := os.MkdirTemp(w.tun.WorkDir, "glasswing-worker-*")
	if err != nil {
		w.wdErr = fmt.Errorf("dist: worker scratch dir: %w", err)
		return "", w.wdErr
	}
	w.workdir = dir
	return dir, nil
}

// blockStore lazily opens this worker's on-disk block store.
func (w *worker) blockStore() (*blockstore.Store, error) {
	w.bsMu.Lock()
	defer w.bsMu.Unlock()
	if w.bstore != nil {
		return w.bstore, nil
	}
	dir, err := w.workDir()
	if err != nil {
		return nil, err
	}
	s, err := blockstore.Open(filepath.Join(dir, "blocks"))
	if err != nil {
		return nil, err
	}
	w.bstore = s
	return s, nil
}

// onBlockPut ingests one replica pushed by the coordinator. Handled
// synchronously on the coordinator reader: the FIFO link guarantees every
// replica is durable before any map task that might reference it arrives.
func (w *worker) onBlockPut(p []byte) error {
	var m blockPutMsg
	if err := decode(p, &m).fin("block-put"); err != nil {
		return err
	}
	s, err := w.blockStore()
	if err != nil {
		return fmt.Errorf("dist: block ingest: %w", err)
	}
	if err := s.Put(m.ID, m.Data); err != nil {
		return fmt.Errorf("dist: block ingest: %w", err)
	}
	w.led.blockIngestBytes.Add(int64(len(m.Data)))
	return nil
}

// acquireBlock resolves one map task's input bytes and reports where they
// came from: "" for a classic embedded block (no accounting — the
// pre-block-store behavior, byte for byte), "local" for the mapper's own
// disk, "remote" for a streamed fetch from a holder or a coordinator
// fallback embed. The error path reports mMapFailed upstream, and the
// scheduler retries the attempt.
func (w *worker) acquireBlock(m mapTaskMsg) ([]byte, string, error) {
	if !m.Ref {
		return m.Block, "", nil
	}
	if len(m.Block) > 0 {
		// No live holder at dispatch: the coordinator embedded the bytes.
		// They crossed the wire, so they count as a remote read.
		w.led.readRemoteBytes.Add(int64(len(m.Block)))
		return m.Block, "remote", nil
	}
	if m.AllowLocal {
		if data, ok := w.readOwnBlock(m.Task); ok {
			w.led.readLocalBytes.Add(int64(len(data)))
			return data, "local", nil
		}
	}
	var lastErr error
	for _, h := range m.Holders {
		if h == w.id {
			continue
		}
		data, err := w.fetchBlockFrom(h, m.Task, m.BlockSize)
		if err != nil {
			lastErr = err
			continue
		}
		w.led.readRemoteBytes.Add(int64(len(data)))
		return data, "remote", nil
	}
	if !m.AllowLocal {
		// Forced-remote, but every other holder is unreachable and we hold
		// a replica: correctness over placement purity — read it here and
		// account it honestly as local.
		if data, ok := w.readOwnBlock(m.Task); ok {
			w.led.readLocalBytes.Add(int64(len(data)))
			return data, "local", nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dist: no reachable holder for block %d", m.Task)
	}
	return nil, "", lastErr
}

// readOwnBlock reads a block from this worker's own store, if held.
func (w *worker) readOwnBlock(id int) ([]byte, bool) {
	s, err := w.blockStore()
	if err != nil || !s.Has(id) {
		return nil, false
	}
	data, err := s.ReadAll(id)
	if err != nil {
		return nil, false
	}
	return data, true
}

// blockFetchWait is one in-flight remote block read: chunks append to buf
// as the peer reader drains them; done resolves when the last chunk (or a
// failure) lands.
type blockFetchWait struct {
	peer int
	buf  []byte
	done chan error // buffered; exactly one resolution per fetch
}

// fetchBlockFrom streams block id from holder j over the peer mesh.
func (w *worker) fetchBlockFrom(j, id int, size int64) ([]byte, error) {
	w.fetchMu.Lock()
	w.fetchCtr++
	nonce := w.fetchCtr
	fw := &blockFetchWait{peer: j, buf: make([]byte, 0, size), done: make(chan error, 1)}
	w.fetches[nonce] = fw
	w.fetchMu.Unlock()

	if len(w.do(wevent{kind: weSend, peer: j, f: frame{typ: mBlockFetch, payload: encode(&blockFetchMsg{ID: id, Nonce: nonce})}})) == 0 {
		w.fetchMu.Lock()
		delete(w.fetches, nonce)
		w.fetchMu.Unlock()
		return nil, fmt.Errorf("dist: no live link to block holder %d", j)
	}
	select {
	case err := <-fw.done:
		if err != nil {
			return nil, err
		}
		return fw.buf, nil
	case <-time.After(blockFetchTimeout):
		w.fetchMu.Lock()
		delete(w.fetches, nonce)
		w.fetchMu.Unlock()
		return nil, fmt.Errorf("dist: fetching block %d from worker %d timed out", id, j)
	case <-w.stop:
		return nil, fmt.Errorf("dist: worker stopping mid-fetch of block %d", id)
	}
}

// blockFetchTimeout bounds a remote block read.
const blockFetchTimeout = 60 * time.Second

// blockIngestWait bounds how long a holder waits for a replica a peer is
// asking for to finish ingesting before declaring it missing.
const blockIngestWait = 15 * time.Second

// onBlockFetch serves one peer's streamed block read. The disk read runs on
// its own goroutine so a slow disk never stalls the peer reader's shuffle
// dispatch; chunks are control frames (bounded by the block size), so they
// flow even when the bulk send window is wedged.
func (w *worker) onBlockFetch(cc *conn, p []byte) {
	var msg blockFetchMsg
	if err := decode(p, &msg).fin("block-fetch"); err != nil {
		return
	}
	w.wg.Add(1)
	go func(msg blockFetchMsg) {
		defer w.wg.Done()
		fail := func() {
			cc.send(frame{typ: mBlockChunk, payload: encode(&blockChunkMsg{
				ID: msg.ID, Nonce: msg.Nonce, OK: false, Last: true,
			})})
		}
		s, err := w.blockStore()
		if err != nil {
			fail()
			return
		}
		// The coordinator's FIFO link only orders a replica's ingest before
		// THIS worker's tasks — a peer whose task dispatch won the race can
		// ask for a block whose put is still in our reader's queue. The
		// namespace says we hold it, so wait for the rename to land (Put is
		// temp-file + rename: Open sees either nothing or the whole block).
		r, err := s.Open(msg.ID)
		for deadline := time.Now().Add(blockIngestWait); err != nil && time.Now().Before(deadline); {
			select {
			case <-w.stop:
				fail()
				return
			case <-time.After(5 * time.Millisecond):
			}
			r, err = s.Open(msg.ID)
		}
		if err != nil {
			fail()
			return
		}
		defer r.Close()
		buf := make([]byte, blockstore.ReadChunk)
		for {
			n, err := r.Read(buf)
			last := err == io.EOF
			if n > 0 || last {
				cc.send(frame{typ: mBlockChunk, payload: encode(&blockChunkMsg{
					ID: msg.ID, Nonce: msg.Nonce, OK: true, Last: last, Data: buf[:n],
				})})
			}
			if last {
				return
			}
			if err != nil {
				fail()
				return
			}
		}
	}(msg)
}

// onBlockChunk routes one streamed chunk to its waiting fetch.
func (w *worker) onBlockChunk(p []byte) {
	var msg blockChunkMsg
	if err := decode(p, &msg).fin("block-chunk"); err != nil {
		return
	}
	w.fetchMu.Lock()
	fw := w.fetches[msg.Nonce]
	if fw == nil {
		w.fetchMu.Unlock()
		return // fetch timed out or failed over already
	}
	if !msg.OK {
		delete(w.fetches, msg.Nonce)
		w.fetchMu.Unlock()
		fw.done <- fmt.Errorf("dist: holder could not stream block %d", msg.ID)
		return
	}
	fw.buf = append(fw.buf, msg.Data...)
	last := msg.Last
	if last {
		delete(w.fetches, msg.Nonce)
	}
	w.fetchMu.Unlock()
	if last {
		fw.done <- nil
	}
}

// failFetches resolves every fetch waiting on peer j with an error — called
// when j's link dies so the executor fails over to another holder instead
// of waiting out the timeout.
func (w *worker) failFetches(j int) {
	w.fetchMu.Lock()
	var orphans []*blockFetchWait
	for n, fw := range w.fetches {
		if fw.peer == j {
			delete(w.fetches, n)
			orphans = append(orphans, fw)
		}
	}
	w.fetchMu.Unlock()
	for _, fw := range orphans {
		fw.done <- fmt.Errorf("dist: lost link to block holder %d mid-fetch", j)
	}
}
