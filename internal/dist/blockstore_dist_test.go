package dist

import (
	"path/filepath"
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/obs"
)

// bsWC builds a WC job with block-store input: enough tasks over 3 workers
// with replication 2 that placement actually matters (repl == workers would
// make every read trivially local).
func bsWC(tel *obs.Telemetry, mode string) (Options, map[string]uint64) {
	data, want := apps.WCData(31, 96<<10, 1200)
	return Options{
		Job:         Job{App: AppSpec{Name: "WC"}, Partitions: 5, Collector: core.HashTable},
		Workers:     3,
		Blocks:      SplitBlocks(data, 8<<10, 0), // ~12 blocks
		Telemetry:   tel,
		NewApp:      testResolver(apps.WordCount, nil),
		KillWorker:  -1,
		Blockstore:  mode,
		Replication: 2,
	}, want
}

// TestBlockstoreLocalPreferred: with local-preferred scheduling every block
// should be read off the mapper's own disk — byte-identical output to the
// embedded-dispatch run, full replication ingested, and the read ledger
// conserving exactly: local + remote == input bytes.
func TestBlockstoreLocalPreferred(t *testing.T) {
	oRef, want := bsWC(nil, "")
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	tel := obs.NewTelemetry()
	o, _ := bsWC(tel, "local")
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if dig := wcDigest(t, res); dig != refDig {
		t.Fatal("block-store run diverged from embedded-dispatch run")
	}
	if got := res.ReadLocalBytes + res.ReadRemoteBytes; got != ref.InputBytes {
		t.Fatalf("read ledger leak: local %d + remote %d != input %d",
			res.ReadLocalBytes, res.ReadRemoteBytes, ref.InputBytes)
	}
	// The affinity deal sends every task to its first replica holder; a
	// fault-free static cluster should read (almost) everything locally.
	// Work stealing can legitimately move a task, so assert the ratio, not
	// perfection.
	if 2*res.ReadLocalBytes < ref.InputBytes {
		t.Fatalf("local reads %d < half of input %d under local-preferred placement",
			res.ReadLocalBytes, ref.InputBytes)
	}
	ingest := tel.Metrics.Counter("dist_block_ingest_bytes_total").Value()
	if want := 2 * ref.InputBytes; ingest != want {
		t.Fatalf("ingested %d replica bytes, want replication*input = %d", ingest, want)
	}
	checkWire(t, tel.Metrics, false)
}

// TestBlockstoreForcedRemote pins the locality-off baseline: every task is
// dealt away from its replicas with AllowLocal off, so every input byte
// streams over the peer mesh and zero reads are local.
func TestBlockstoreForcedRemote(t *testing.T) {
	tel := obs.NewTelemetry()
	o, want := bsWC(tel, "remote")
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.ReadLocalBytes != 0 {
		t.Fatalf("forced-remote run read %d bytes locally", res.ReadLocalBytes)
	}
	if res.ReadRemoteBytes != res.InputBytes {
		t.Fatalf("remote reads %d != input %d", res.ReadRemoteBytes, res.InputBytes)
	}
	checkWire(t, tel.Metrics, false)
}

// TestBlockstoreSpill drives the out-of-core reduce: a spill threshold far
// below the shuffle volume forces committed partitions to disk, and the
// reduce merge streams them back — output still byte-identical.
func TestBlockstoreSpill(t *testing.T) {
	oRef, want := bsWC(nil, "")
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	tel := obs.NewTelemetry()
	o, _ := bsWC(tel, "local")
	o.Tuning.SpillThreshold = 4 << 10
	o.Tuning.WorkDir = t.TempDir()
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if dig := wcDigest(t, res); dig != refDig {
		t.Fatal("spilling run diverged from resident run")
	}
	if res.SpillRecords == 0 || res.SpillBytes == 0 {
		t.Fatalf("threshold %d forced no spills (records %d, bytes %d)",
			o.Tuning.SpillThreshold, res.SpillRecords, res.SpillBytes)
	}
	if files := tel.Metrics.Counter("conserv_spill_files_total").Value(); files == 0 {
		t.Fatal("spill files counter did not move")
	}
	checkWire(t, tel.Metrics, false)
}

// TestBlockstoreKillRecovers: killing a replica holder mid-job must not
// fail the run — surviving replicas (or the coordinator's embedded
// fallback) feed the re-executed tasks.
func TestBlockstoreKillRecovers(t *testing.T) {
	tel := obs.NewTelemetry()
	o, want := bsWC(tel, "local")
	o.KillWorker = 1
	o.KillAfterMapDone = 2
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1", res.WorkersLost)
	}
	checkWire(t, tel.Metrics, true)
}

// TestBlockstoreSoleHolderKilled: with one replica per block, a killed
// worker takes the only copy of every block it was dealt with it. Its
// unresolved tasks, and the resolved ones whose map output died with it,
// can be served by no holder: the coordinator embeds the bytes in the
// re-dispatched task frame, and the read books as remote.
func TestBlockstoreSoleHolderKilled(t *testing.T) {
	tel := obs.NewTelemetry()
	o, want := bsWC(tel, "local")
	o.Replication = 1
	o.KillWorker = 1
	o.KillAfterMapDone = 2
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1", res.WorkersLost)
	}
	if remote := tel.Metrics.Counter("dist_read_remote_bytes_total").Value(); remote == 0 {
		t.Fatal("no remote read: the dead worker's blocks reached no survivor over the wire")
	}
	checkWire(t, tel.Metrics, true)
}

// TestBlockstoreRestartResume: a coordinator crash and journal resume must
// reconstruct the namespace (jrNamespace) instead of re-ingesting — the
// workers' disks still hold their replicas — and finish byte-identical.
func TestBlockstoreRestartResume(t *testing.T) {
	oRef, want := bsWC(nil, "")
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	tel := obs.NewTelemetry()
	o, _ := bsWC(tel, "local")
	o.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
	o.Elastic = []ElasticEvent{{Kind: "restart", AfterMapDone: 4}}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("job did not go through the resume path")
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if dig := wcDigest(t, res); dig != refDig {
		t.Fatal("resumed block-store run diverged")
	}
	checkWire(t, tel.Metrics, false)
}
