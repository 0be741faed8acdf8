package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"glasswing/internal/blockstore"
)

// This file is the worker's half of the distributed block store: the
// scratch directory holding its replicas and spill files, ingest of
// coordinator-pushed blocks, and the local read or remote fetch a Ref map
// task resolves its input through. A block moves whole: one read, one
// frame. Every decision about a read — which holder to ask next, what a
// lost link or a dead holder means for a fetch, whether a holder can answer
// yet — is a wstate step; the shell below only reads, writes and waits. The
// coordinator's half (placement, namespace journaling, dispatch refs) lives
// in coordinator.go.

// blockFetchTimeout bounds a remote block read.
const blockFetchTimeout = 60 * time.Second

// blockFetch is the executor's remote block read: the block and the size
// the reply must have, the holder asked now, and the holders not yet tried.
// The executor is serial, so a worker has at most one in flight.
type blockFetch struct {
	nonce   uint64
	block   int
	size    int64
	holder  int
	holders []int
}

// scratch creates this worker's scratch directory (under Tuning.WorkDir, or
// the OS temp dir) the first time it is asked for. Only the coordinator
// loop asks, where the protocol orders it before every reader: at job start
// when spilling is armed, else at the first block put, which precedes every
// map task on the FIFO coordinator link. Jobs that never spill and never
// use the block store never touch the disk.
func (w *worker) scratch() (string, error) {
	if w.workdir == "" && w.wdErr == nil {
		w.workdir, w.wdErr = os.MkdirTemp(w.tun.WorkDir, "glasswing-worker-*")
		if w.wdErr != nil {
			w.wdErr = fmt.Errorf("dist: worker scratch dir: %w", w.wdErr)
		}
	}
	return w.workdir, w.wdErr
}

// ingest stores one replica pushed by the coordinator, on the coordinator
// loop, and steps its arrival: fetches peers made for it before it landed
// are answered now. The store is opened at the first put.
func (w *worker) ingest(p []byte) error {
	var m blockPutMsg
	if err := decode(p, &m).fin("block-put"); err != nil {
		return err
	}
	if w.bstore == nil {
		dir, err := w.scratch()
		if err == nil {
			w.bstore, err = blockstore.Open(filepath.Join(dir, "blocks"))
		}
		if err != nil {
			return fmt.Errorf("dist: block ingest: %w", err)
		}
	}
	if err := w.bstore.Put(m.ID, m.Data); err != nil {
		return fmt.Errorf("dist: block ingest: %w", err)
	}
	w.led.blockIngestBytes.Add(int64(len(m.Data)))
	w.do(wevent{kind: weIngest, block: m.ID})
	return nil
}

// acquireBlock resolves one map task's input bytes and reports where they
// came from: "" for a classic embedded block (no accounting — the
// pre-block-store behavior, byte for byte), "local" for the mapper's own
// disk, "remote" for a fetch from a holder or a coordinator fallback embed.
// A replica of the wrong size counts as missing. The error path reports
// mMapFailed upstream, and the scheduler retries the attempt.
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
		if data, ok := w.readOwnBlock(m); ok {
			return data, "local", nil
		}
	}
	data, err := w.fetchBlock(m)
	switch {
	case err == nil:
		w.led.readRemoteBytes.Add(int64(len(data)))
		return data, "remote", nil
	case !m.AllowLocal:
		// Forced-remote, but no other holder could serve it and we hold a
		// replica: correctness over placement purity — read it here and
		// account it honestly as local.
		if data, ok := w.readOwnBlock(m); ok {
			return data, "local", nil
		}
	}
	return nil, "", err
}

// readOwnBlock reads the task's block from this worker's own store, if held
// whole, and books it read locally. The store, if any, was opened before
// this task arrived (see scratch).
func (w *worker) readOwnBlock(m mapTaskMsg) ([]byte, bool) {
	if w.bstore == nil {
		return nil, false
	}
	data, err := w.bstore.ReadAll(m.Task)
	if err != nil || int64(len(data)) != m.BlockSize {
		return nil, false
	}
	w.led.readLocalBytes.Add(int64(len(data)))
	return data, true
}

// fetchBlock reads block m.Task from its other holders: the step asks
// each in turn and resolves the fetch, and this executor waits for it.
func (w *worker) fetchBlock(m mapTaskMsg) ([]byte, error) {
	f := &blockFetch{block: m.Task, size: m.BlockSize, holders: m.Holders}
	w.do(wevent{kind: weFetch, fetch: f})
	t := time.NewTimer(blockFetchTimeout)
	defer t.Stop()
	for {
		select {
		case e := <-w.fetchDone:
			return e.data, e.err
		case <-t.C:
			w.do(wevent{kind: weTimeout, fetch: f}) // resolves f, unless a reply just did
		case <-w.stop:
			return nil, errors.New("dist: worker stopping mid-fetch")
		}
	}
}

// serve answers one peer's fetch on its own goroutine, so a slow disk never
// stalls the reader that stepped it: one read of the block, one reply.
func (w *worker) serve(cc *conn, bs *blockstore.Store, id int, nonce uint64) {
	defer w.wg.Done()
	msg := blockDataMsg{ID: id, Nonce: nonce}
	if bs != nil {
		data, err := bs.ReadAll(id)
		msg.OK, msg.Data = err == nil, data
	}
	cc.send(newFrame(mBlockData, &msg))
}

// The step's half of block reads: wstate methods, under the worker's lock.

// fetch starts the executor's read at the block's first holder it can ask.
func (s *wstate) fetch(f *blockFetch) {
	s.nonce++
	f.nonce, s.fetching = s.nonce, f
	s.refetch(fmt.Errorf("dist: no reachable holder for block %d", f.block))
}

// refetch asks the fetch's next holder — another worker, alive and linked
// — or, with none left, resolves the fetch with err.
func (s *wstate) refetch(err error) {
	f := s.fetching
	for !s.killed && !s.ended && len(f.holders) > 0 {
		h := f.holders[0]
		f.holders = f.holders[1:]
		if h != s.id && s.isLinked(h) && s.alive[h] {
			f.holder = h
			s.emit(weffect{op: wfxSend, peer: h, f: newFrame(mBlockFetch, &blockFetchMsg{ID: f.block, Nonce: f.nonce})})
			return
		}
	}
	s.resolve(nil, err)
}

// resolve ends the fetch: the executor gets data, or err.
func (s *wstate) resolve(data []byte, err error) {
	s.fetching = nil
	s.emit(weffect{op: wfxFetched, data: data, err: err})
}

// holderLost fails the fetch over if holder j was serving it: j's link
// ended, or j died.
func (s *wstate) holderLost(j int, why string) {
	if f := s.fetching; f != nil && f.holder == j {
		s.refetch(fmt.Errorf("dist: block holder %d %s mid-fetch of block %d", j, why, f.block))
	}
}

// fetchReply takes holder j's reply. One from a holder the fetch has moved
// past is stale; a failed read or a block of the wrong size fails over like
// a missing replica.
func (s *wstate) fetchReply(j int, p []byte) {
	var msg blockDataMsg
	switch f := s.fetching; {
	case decode(p, &msg).fin("block-data") != nil || f == nil || f.nonce != msg.Nonce || f.holder != j:
	case !msg.OK:
		s.refetch(fmt.Errorf("dist: holder %d could not read block %d", j, f.block))
	case int64(len(msg.Data)) != f.size:
		s.refetch(fmt.Errorf("dist: holder %d sent %d bytes of block %d, want %d", j, len(msg.Data), f.block, f.size))
	default:
		s.resolve(msg.Data, nil)
	}
}

// serveFetch answers peer j's fetch once this worker holds the block. The
// coordinator's FIFO link only orders a replica's ingest before this
// worker's own tasks: a peer whose dispatch won the race can ask for a
// block whose put is still in flight, so the fetch is held for the ingest.
func (s *wstate) serveFetch(j int, p []byte) {
	var msg blockFetchMsg
	if decode(p, &msg).fin("block-fetch") != nil || s.killed || s.ended {
		return
	}
	s.serving = append(s.serving, weffect{op: wfxServe, peer: j, block: msg.ID, nonce: msg.Nonce})
	s.serveHeld()
}

// serveHeld answers every held fetch whose block is ingested. Once the
// coordinator link that carried this worker's puts is gone, no put is
// coming (a resumed coordinator never re-ingests): every held fetch is
// answered, and a read of a block never put fails.
func (s *wstate) serveHeld() {
	s.serving = slices.DeleteFunc(s.serving, func(e weffect) bool {
		ok := s.ingested[e.block] || s.ingestOver
		if ok {
			s.emit(e)
		}
		return ok
	})
}

// endBlockReads ends the fetch in flight with err, and forgets every held
// one, for a killed or ended worker.
func (s *wstate) endBlockReads(err error) {
	if s.fetching != nil {
		s.resolve(nil, err)
	}
	s.serving = nil
}
