package dist

import (
	"testing"

	"glasswing/internal/apps"
)

// TestKilledWorkerReducesNothing: a kill writes the store off as lost
// before it closes the coordinator link. A reduce task that starts in that
// window must report nothing; a report would carry the emptied partition
// as its final output, and the coordinator accepts the first report.
func TestKilledWorkerReducesNothing(t *testing.T) {
	a, b := tcpPair(t)
	coord := newConn(b, "coordinator", Tuning{}, nil)
	defer coord.close()
	w := &worker{
		tr: newTracer(0), led: newLedger(nil), store: newShuffleStore(),
		app: apps.WordCount(), coord: newConn(a, "worker", Tuning{}, nil),
	}
	defer w.coord.close()
	w.store.stage(0, 0, 0, storeRun(t, 3), 0)
	w.store.commit(0, 0)

	// The first half of kill: marked killed, store written off, link open.
	w.mu.Lock()
	w.killed = true
	w.store.lostAll()
	w.mu.Unlock()
	w.runReduce(reduceTaskMsg{Partition: 0})

	w.coordSend(frame{typ: mJobEnd})
	typ, _, err := coord.recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != mJobEnd {
		t.Fatalf("killed worker sent %s", typeName(typ))
	}
}
