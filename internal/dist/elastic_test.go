package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// elasticWC builds a WC job with enough tasks that elastic events scheduled
// against map progress have work left to reshape.
func elasticWC(workers int, tel *obs.Telemetry) (Options, map[string]uint64) {
	data, want := apps.WCData(29, 96<<10, 1200)
	return Options{
		Job:        Job{App: AppSpec{Name: "WC"}, Partitions: 6, Collector: core.HashTable},
		Workers:    workers,
		Blocks:     SplitBlocks(data, 8<<10, 0), // ~12 tasks
		Telemetry:  tel,
		NewApp:     testResolver(apps.WordCount, nil),
		KillWorker: -1,
	}, want
}

func wcDigest(t *testing.T, res *Result) string {
	t.Helper()
	out := res.Output()
	kv.SortPairs(out)
	return fmt.Sprintf("%x", kv.Marshal(out))
}

// checkWire asserts the wire ledger balances exactly: sent == recv + lost.
func checkWire(t *testing.T, reg *obs.Registry, wantLoss bool) {
	t.Helper()
	sent, recv, lost, bsent, brecv, blost := netCounters(reg)
	if sent != recv+lost || bsent != brecv+blost {
		t.Fatalf("wire ledger imbalance: sent %d/%dB, recv %d/%dB, lost %d/%dB",
			sent, bsent, recv, brecv, lost, blost)
	}
	if !wantLoss && (lost != 0 || blost != 0) {
		t.Fatalf("unexpected loss: %d records, %d bytes", lost, blost)
	}
}

// checkStore asserts the store ledger is exact: every record a winning
// reduce read was accepted by a store and not lost with it, or was lost
// only after a final reduce had settled it.
func checkStore(t *testing.T, reg *obs.Registry) {
	t.Helper()
	c := func(name string) int64 { return reg.Counter(name).Value() }
	in, acc := c("conserv_reduce_records_in_total"), c("conserv_store_accepted_records_total")
	lost, settled := c("conserv_store_lost_records_total"), c("conserv_store_settled_records_total")
	if in != acc-lost+settled {
		t.Fatalf("store ledger imbalance: reduce in %d, accepted %d - lost %d + settled %d = %d",
			in, acc, lost, settled, acc-lost+settled)
	}
}

// runWatched runs one loopback job under a watchdog, so a membership
// deadlock fails the test instead of stalling the suite.
func runWatched(t *testing.T, o Options, limit time.Duration) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunLoopback(o)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		return out.res
	case <-time.After(limit):
		t.Fatalf("job still running after %v", limit)
		return nil
	}
}

// checkHandoff asserts handed-off shuffle data balances: every record a
// drained worker shipped was adopted by the partition's new home.
func checkHandoff(t *testing.T, reg *obs.Registry) {
	t.Helper()
	out := reg.Counter("conserv_store_handoff_out_records_total").Value()
	in := reg.Counter("conserv_store_handoff_in_records_total").Value()
	if out != in {
		t.Fatalf("handoff leak: %d records out, %d adopted", out, in)
	}
}

func TestElasticJoin(t *testing.T) {
	// Reference digest from a static run.
	oRef, want := elasticWC(2, nil)
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	tel := obs.NewTelemetry()
	o, _ := elasticWC(2, tel)
	o.Elastic = []ElasticEvent{{Kind: "join", AfterMapDone: 2}}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.WorkersJoined != 1 {
		t.Fatalf("WorkersJoined = %d, want 1", res.WorkersJoined)
	}
	if dig := wcDigest(t, res); dig != refDig {
		t.Fatal("join run output diverged from static run")
	}
	checkWire(t, tel.Metrics, false)
	checkHandoff(t, tel.Metrics)
}

func TestElasticDrain(t *testing.T) {
	oRef, want := elasticWC(3, nil)
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	tel := obs.NewTelemetry()
	o, _ := elasticWC(3, tel)
	o.Elastic = []ElasticEvent{{Kind: "drain", Worker: 0, AfterMapDone: 3}}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.WorkersDrained != 1 {
		t.Fatalf("WorkersDrained = %d, want 1", res.WorkersDrained)
	}
	if res.WorkersLost != 0 {
		t.Fatalf("graceful drain counted as loss: WorkersLost = %d", res.WorkersLost)
	}
	if dig := wcDigest(t, res); dig != refDig {
		t.Fatal("drain run output diverged from static run")
	}
	// A graceful drain must lose nothing: staged shuffle flushes before the
	// handoff, and handed-off records are adopted exactly.
	checkWire(t, tel.Metrics, false)
	checkHandoff(t, tel.Metrics)
}

func TestReduceKillRecovers(t *testing.T) {
	// A worker killed during the reduce phase used to fail the job; now the
	// coordinator cancels the wave, re-executes what died, and finishes.
	oRef, want := elasticWC(3, nil)
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	tel := obs.NewTelemetry()
	o, _ := elasticWC(3, tel)
	o.Elastic = []ElasticEvent{{Kind: "kill", Worker: 1, AfterReduceDone: 1}}
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
	if dig := wcDigest(t, res); dig != refDig {
		t.Fatal("reduce-kill run output diverged from static run")
	}
	checkWire(t, tel.Metrics, true)
}

func TestJoinAfterReduceKillKeepsStoreLedger(t *testing.T) {
	// A worker that joins after a reduce-phase death must learn which
	// partitions are settled. Otherwise, once active, it ships re-executed
	// map output to partitions no reduce will read again, and their homes
	// book it as accepted.
	oRef, want := elasticWC(3, nil)
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	for n := 1; n <= 4; n++ {
		spec := fmt.Sprintf("kill:1@r%d,join@r%d", n, n)
		// Every run is checked, but the spec must also prove a joiner was
		// admitted in at least one. A run may rightly admit none: when the
		// kill target's partitions are among the first r accepted, the other
		// workers can finish before its death is observed, and the death then
		// ends the job. So past the third run, keep going until one admits
		// the joiner, up to ten runs.
		joined := false
		for run := 0; run < 3 || !joined && run < 10; run++ {
			tel := obs.NewTelemetry()
			o, _ := elasticWC(3, tel)
			if o.Elastic, err = ParseElastic(spec); err != nil {
				t.Fatal(err)
			}
			res, err := RunLoopback(o)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			if err := apps.VerifyCounts(res.Output(), want); err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			if dig := wcDigest(t, res); dig != refDig {
				t.Fatalf("%s: output diverged from static run", spec)
			}
			checkWire(t, tel.Metrics, true)
			checkStore(t, tel.Metrics)
			joined = joined || res.WorkersJoined > 0
		}
		if !joined {
			t.Fatalf("%s: no run admitted the joiner", spec)
		}
	}
}

func TestElasticDeathDuringDrain(t *testing.T) {
	// A death while a drain is queued, announced or in handoff: the drain
	// target must stay live to its peers until its own drain frame goes
	// out, or the cluster waits forever on links it already sealed.
	oRef, want := elasticWC(4, nil)
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	for _, spec := range []string{"drain:0@2,kill:1@2", "kill:1@2,drain:0@2", "drain:0@3,kill:1@4"} {
		tel := obs.NewTelemetry()
		o, _ := elasticWC(4, tel)
		if o.Elastic, err = ParseElastic(spec); err != nil {
			t.Fatal(err)
		}
		res := runWatched(t, o, 60*time.Second)
		if err := apps.VerifyCounts(res.Output(), want); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if dig := wcDigest(t, res); dig != refDig {
			t.Fatalf("%s: output diverged from static run", spec)
		}
		if res.WorkersDrained != 1 || res.WorkersLost != 1 {
			t.Fatalf("%s: drained=%d lost=%d, want 1 and 1", spec, res.WorkersDrained, res.WorkersLost)
		}
		checkWire(t, tel.Metrics, true)
		checkStore(t, tel.Metrics)
	}
}

func TestCoordinatorRestartResume(t *testing.T) {
	oRef, want := elasticWC(3, nil)
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	tel := obs.NewTelemetry()
	o, _ := elasticWC(3, tel)
	o.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
	o.Elastic = []ElasticEvent{{Kind: "restart", AfterMapDone: 4}}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("restarted run did not report Resumed")
	}
	if dig := wcDigest(t, res); dig != refDig {
		t.Fatal("resumed run output diverged from static run")
	}
	checkWire(t, tel.Metrics, false)
}

// TestRestartKeepsThrowawayJournal: a restart schedule with no JournalPath
// resumes from a journal RunLoopback keeps under Tuning.WorkDir, and the
// job leaves nothing behind there.
func TestRestartKeepsThrowawayJournal(t *testing.T) {
	o, want := elasticWC(3, obs.NewTelemetry())
	o.Tuning.WorkDir = t.TempDir()
	o.Elastic = []ElasticEvent{{Kind: "restart", AfterMapDone: 4}}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("restarted run did not report Resumed")
	}
	left, err := os.ReadDir(o.Tuning.WorkDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("the job left %s in its work dir", e.Name())
	}
	// The journal goes under WorkDir: a missing one fails the job up front.
	o.Tuning.WorkDir = filepath.Join(o.Tuning.WorkDir, "missing")
	if _, err := RunLoopback(o); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("restart job with a missing work dir: got error %v, want a journal error", err)
	}
}

func TestRestartDuringReduce(t *testing.T) {
	oRef, want := elasticWC(3, nil)
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	tel := obs.NewTelemetry()
	o, _ := elasticWC(3, tel)
	o.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
	o.Elastic = []ElasticEvent{{Kind: "restart", AfterReduceDone: 2}}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("restarted run did not report Resumed")
	}
	// Partitions accepted before the crash keep their journaled output; the
	// rest re-reduce. Either way the digest is the static run's.
	if dig := wcDigest(t, res); dig != refDig {
		t.Fatal("mid-reduce resume output diverged from static run")
	}
}

func TestElasticChaosCombined(t *testing.T) {
	// The full gauntlet on one job: grow 3→5, kill one, drain two, restart
	// the coordinator, and still produce the static run's bytes with an
	// exactly balanced ledger.
	oRef, want := elasticWC(3, nil)
	ref, err := RunLoopback(oRef)
	if err != nil {
		t.Fatal(err)
	}
	refDig := wcDigest(t, ref)

	tel := obs.NewTelemetry()
	o, _ := elasticWC(3, tel)
	o.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
	o.Elastic = []ElasticEvent{
		{Kind: "join", AfterMapDone: 2},
		{Kind: "join", AfterMapDone: 3},
		{Kind: "kill", Worker: 1, AfterMapDone: 6},
		{Kind: "drain", Worker: 0, AfterMapDone: 8},
		{Kind: "restart", AfterReduceDone: 1},
	}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.WorkersJoined != 2 || res.WorkersLost != 1 || res.WorkersDrained != 1 || !res.Resumed {
		t.Fatalf("churn accounting: joined=%d lost=%d drained=%d resumed=%v",
			res.WorkersJoined, res.WorkersLost, res.WorkersDrained, res.Resumed)
	}
	if dig := wcDigest(t, res); dig != refDig {
		t.Fatal("chaos run output diverged from static run")
	}
	checkWire(t, tel.Metrics, true)
}

func TestResumeRefusedOnSpecMismatch(t *testing.T) {
	// Run a job to completion with a journal, then try to resume it as a
	// different job: the coordinator must refuse, not diverge.
	o, _ := elasticWC(2, nil)
	o.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
	if _, err := RunLoopback(o); err != nil {
		t.Fatal(err)
	}
	o2, _ := elasticWC(2, nil)
	o2.JournalPath = o.JournalPath
	o2.Resume = true
	// The workers stop redialing the refusing coordinator.
	o2.Tuning.RejoinGrace = 200 * time.Millisecond
	o2.Job.Partitions = 9 // spec mismatch
	_, err := RunLoopback(o2)
	if err == nil {
		t.Fatal("resume with mismatched job spec succeeded")
	}
}

// TestResumeRefusedOnInputMismatch: the input digest, which the
// coordinator computes because the job journals, passes a resume of the
// journaled input and refuses one whose input differs in one byte.
func TestResumeRefusedOnInputMismatch(t *testing.T) {
	o, _ := elasticWC(2, nil)
	o.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
	if _, err := RunLoopback(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := replayJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	same, _ := elasticWC(2, nil)
	if err := st.validateResume(&same); err != nil {
		t.Fatalf("the journaled input: %v", err)
	}
	o2, _ := elasticWC(2, nil)
	o2.JournalPath = o.JournalPath
	o2.Resume = true
	// The workers stop redialing the refusing coordinator.
	o2.Tuning.RejoinGrace = 200 * time.Millisecond
	o2.Blocks = slices.Clone(o2.Blocks)
	o2.Blocks[1] = slices.Clone(o2.Blocks[1])
	o2.Blocks[1][0] ^= 1
	_, err = RunLoopback(o2)
	if err == nil || !strings.Contains(err.Error(), "input blocks differ") {
		t.Fatalf("resume with one input byte changed: %v, want the input-mismatch refusal", err)
	}
}

// TestReplayMatchesLiveState pins the journal's one promise to a resumed
// coordinator: replaying a job's final journal rebuilds exactly the state
// its coordinator ended the job with — under a join, a drain, a map-phase
// and a reduce-phase kill, and coordinator restarts, whose resumed
// coordinator's state is itself part replayed and part live.
func TestReplayMatchesLiveState(t *testing.T) {
	for _, spec := range []string{"", "join@2", "drain:0@3", "kill:1@4", "kill:1@r1", "restart@4", "restart@r1"} {
		o, want := elasticWC(3, nil)
		o.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
		var err error
		if o.Elastic, err = ParseElastic(spec); err != nil {
			t.Fatal(err)
		}
		res := runWatched(t, o, 60*time.Second)
		if err := apps.VerifyCounts(res.Output(), want); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		data, err := os.ReadFile(o.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := replayJournal(data)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		live := res.state
		for _, f := range []struct {
			name           string
			live, replayed any
		}{
			{"job-start", live.jobRecord, replayed.jobRecord},
			{"namespace", live.namespaceRecord, replayed.namespaceRecord},
			{"membership", live.membershipRecord, replayed.membershipRecord},
			{"resolved", live.resolved, replayed.resolved},
			{"stats", live.stats, replayed.stats},
			{"done", live.done, replayed.done},
			{"reduced", live.reduced, replayed.reduced},
			{"resident", live.resident, replayed.resident},
		} {
			if !reflect.DeepEqual(f.live, f.replayed) {
				t.Errorf("%q: %s differs:\n live     %+v\n replayed %+v", spec, f.name, f.live, f.replayed)
			}
		}
		if !reflect.DeepEqual(live, replayed) {
			t.Fatalf("%q: replayed state differs from the coordinator's", spec)
		}
	}
}

// TestJoinBeforeRestart schedules a join just before a coordinator crash:
// the joiner may dial the crashing coordinator, the resumed one, or both,
// and may or may not have been welcomed. Either way the resumed coordinator
// admits it exactly once and hands it partitions before reduce starts.
func TestJoinBeforeRestart(t *testing.T) {
	for _, spec := range []string{"join@2,restart@2", "join@2,restart@3"} {
		tel := obs.NewTelemetry()
		o, want := elasticWC(3, tel)
		o.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
		var err error
		if o.Elastic, err = ParseElastic(spec); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res := runWatched(t, o, 60*time.Second)
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("%s: took %v", spec, took)
		}
		if err := apps.VerifyCounts(res.Output(), want); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !res.Resumed || res.WorkersJoined != 1 {
			t.Fatalf("%s: resumed=%v joined=%d, want true and 1", spec, res.Resumed, res.WorkersJoined)
		}
		checkWire(t, tel.Metrics, false)
		checkStore(t, tel.Metrics)
	}
}

// TestDrainOfLastActiveRefused schedules drains of both workers of a
// two-worker job. The second would leave no active worker to take the
// partitions, so it is refused when it fires; the first completes.
func TestDrainOfLastActiveRefused(t *testing.T) {
	o, want := elasticWC(2, nil)
	var err error
	if o.Elastic, err = ParseElastic("drain:0@2,drain:1@2"); err != nil {
		t.Fatal(err)
	}
	res := runWatched(t, o, 60*time.Second)
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.WorkersDrained != 1 {
		t.Fatalf("WorkersDrained = %d, want 1", res.WorkersDrained)
	}
}

// TestDrainAcrossRestart crashes the coordinator right after a drain
// starts: the drain of a joiner fires as the join completes, and the
// restart queued behind it fires in the same breath, with the drain's
// membership frame out and its handoffs in flight. The resumed coordinator
// finds the unfinished drain in its journal and completes it, so the
// target exits drained and is counted.
func TestDrainAcrossRestart(t *testing.T) {
	tel := obs.NewTelemetry()
	o, want := elasticWC(3, tel)
	o.JournalPath = filepath.Join(t.TempDir(), "coord.journal")
	var err error
	if o.Elastic, err = ParseElastic("join@2,drain:3@2,restart@2"); err != nil {
		t.Fatal(err)
	}
	res := runWatched(t, o, 60*time.Second)
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.WorkersJoined != 1 || res.WorkersDrained != 1 {
		t.Fatalf("resumed=%v joined=%d drained=%d, want true, 1 and 1", res.Resumed, res.WorkersJoined, res.WorkersDrained)
	}
	checkWire(t, tel.Metrics, true)
	checkStore(t, tel.Metrics)
}
