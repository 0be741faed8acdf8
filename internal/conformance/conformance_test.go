package conformance

import (
	"os"
	"slices"
	"strings"
	"testing"

	"glasswing"
	"glasswing/internal/core"
	"glasswing/internal/dist"
	"glasswing/internal/native"
	"glasswing/internal/obs"
)

// TestReference sanity-checks the sequential reference engine itself: jobs
// exist, expectations are internally consistent, and the digest is stable
// across recomputation.
func TestReference(t *testing.T) {
	jobs := Jobs()
	if len(jobs) != 3 {
		t.Fatalf("want 3 conformance jobs, got %d", len(jobs))
	}
	for _, j := range jobs {
		exp1 := Reference(j)
		exp2 := Reference(j)
		if exp1 != exp2 {
			t.Errorf("%s: reference not deterministic: %+v vs %+v", j.Name, exp1, exp2)
		}
		if exp1.Records == 0 || exp1.InterPairs == 0 || exp1.OutputPairs == 0 || exp1.DistinctKeys == 0 {
			t.Errorf("%s: degenerate expectation %+v", j.Name, exp1)
		}
		if exp1.InterBytes <= exp1.InterPairs {
			t.Errorf("%s: intermediate bytes %d implausibly small for %d pairs",
				j.Name, exp1.InterBytes, exp1.InterPairs)
		}
	}
}

// runRuntimeMatrix executes one runtime's full slice of the matrix and
// fails on any cell whose digest, verifier, or ledger check does not hold.
func runRuntimeMatrix(t *testing.T, runtime string, wantAxes int) {
	t.Helper()
	cells := RunMatrix(Options{Runtimes: []string{runtime}}, nil)
	if len(cells) == 0 {
		t.Fatalf("no cells ran for runtime %q", runtime)
	}
	axes := map[string]bool{}
	apps := map[string]bool{}
	for _, c := range cells {
		axes[c.Axis] = true
		apps[c.App] = true
		if c.Err != nil {
			t.Errorf("%s: %v", c.Key(), c.Err)
		} else if c.Digest == "" {
			t.Errorf("%s: empty digest", c.Key())
		}
	}
	if len(apps) != 3 {
		t.Errorf("runtime %q covered %d apps, want 3", runtime, len(apps))
	}
	if len(axes) < wantAxes {
		t.Errorf("runtime %q covered %d axes, want >= %d", runtime, len(axes), wantAxes)
	}
	t.Logf("runtime %s: %d cells, %d apps, %d axes", runtime, len(cells), len(apps), len(axes))
}

func TestMatrixSim(t *testing.T) {
	t.Parallel()
	runRuntimeMatrix(t, "sim", 8)
}

func TestMatrixNative(t *testing.T) {
	t.Parallel()
	runRuntimeMatrix(t, "native", 6)
}

func TestMatrixHadoop(t *testing.T) {
	t.Parallel()
	runRuntimeMatrix(t, "hadoop", 4)
}

func TestMatrixGPMR(t *testing.T) {
	t.Parallel()
	runRuntimeMatrix(t, "gpmr", 4)
}

func TestMatrixDist(t *testing.T) {
	t.Parallel()
	runRuntimeMatrix(t, "dist", 7)
}

// TestMatrixService re-runs the dist axis table through the job service's
// HTTP API: JSON submission, admission, priority queue, scheduler, fleet,
// then digest + verifier + a wire ledger rebuilt from the serialized
// per-job registry. Same axes as dist — the service layer must be
// semantically invisible.
func TestMatrixService(t *testing.T) {
	t.Parallel()
	runRuntimeMatrix(t, "service", 7)
}

// TestMatrixDistCellCount pins the dist matrix's breadth: the ISSUE's
// acceptance floor is 20 executed axis cells including the worker-kill one.
func TestMatrixDistCellCount(t *testing.T) {
	t.Parallel()
	cells := RunMatrix(Options{Runtimes: []string{"dist"}}, nil)
	if len(cells) < 20 {
		t.Fatalf("dist matrix ran %d cells, want >= 20", len(cells))
	}
	kills := 0
	for _, c := range cells {
		if c.Variant == "worker-kill" {
			kills++
			if c.Err != nil {
				t.Errorf("%s: %v", c.Key(), c.Err)
			}
		}
	}
	if kills != 3 {
		t.Errorf("worker-kill ran for %d apps, want 3", kills)
	}
}

// TestMatrixCellList pins the matrix's cells and their order: the keys the
// runtimes' tables list, without running a cell, must be
// testdata/cells.txt's, one per line.
func TestMatrixCellList(t *testing.T) {
	data, err := os.ReadFile("testdata/cells.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	var got []string
	eachCell(Options{}, func(c Cell, _ func() (string, error)) { got = append(got, c.Key()) })
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Errorf("the tables list %d cells, testdata/cells.txt %d; they first differ at line %d", len(got), len(want), i+1)
}

// TestCrossRuntimeDigests pins the property the whole subsystem exists for:
// for each app, the baseline cells of every runtime produce byte-identical
// canonical digests (they are each already compared against the reference,
// but this states the cross-runtime claim directly).
func TestCrossRuntimeDigests(t *testing.T) {
	t.Parallel()
	cells := RunMatrix(Options{Axes: []string{"baseline"}}, nil)
	byApp := map[string]map[string]string{} // app -> runtime -> digest
	for _, c := range cells {
		if c.Err != nil {
			t.Errorf("%s: %v", c.Key(), c.Err)
			continue
		}
		if byApp[c.App] == nil {
			byApp[c.App] = map[string]string{}
		}
		byApp[c.App][c.Runtime] = c.Digest
	}
	for app, digests := range byApp {
		if len(digests) != len(RuntimeNames) {
			t.Errorf("%s: baseline ran on %d runtimes, want %d", app, len(digests), len(RuntimeNames))
		}
		var first string
		for _, d := range digests {
			if first == "" {
				first = d
			} else if d != first {
				t.Errorf("%s: divergent baseline digests across runtimes: %v", app, digests)
				break
			}
		}
	}
}

// counterNames lists the counters a registry holds.
func counterNames(reg *obs.Registry) map[string]bool {
	names := map[string]bool{}
	for _, m := range reg.Snapshot() {
		if m.Type == "counter" {
			names[m.Name] = true
		}
	}
	return names
}

// wcDist is the dist baseline cell's 3-worker loopback job over j's data,
// counting into tel.
func wcDist(t *testing.T, j Job, tel *obs.Telemetry) dist.Options {
	o, err := j.distOptions(variant{})
	if err != nil {
		t.Fatal(err)
	}
	o.Blocks, o.Telemetry = splitBlocks(j, j.blockFor(1)), tel
	return o
}

// TestConservVocabularyIsShared: the three runtimes count into one ledger
// type, so after one WC cell each registry holds every name core.NewConserv
// registers — and the reader asks for no counter that no runtime writes.
func TestConservVocabularyIsShared(t *testing.T) {
	j := Jobs()[0]
	table := obs.NewRegistry()
	core.NewConserv(table)
	shared := counterNames(table)
	if len(shared) == 0 {
		t.Fatal("core.NewConserv registered no counters")
	}

	sim := obs.NewRegistry()
	cluster := glasswing.NewCluster(glasswing.ClusterConfig{Nodes: 3, BlockSize: j.blockFor(1)})
	cluster.LoadText("in", j.Data)
	cfg := simConfig(j, simVariant{})
	cfg.Metrics = sim
	if _, err := cluster.Run(j.New(), cfg); err != nil {
		t.Fatal(err)
	}
	nat := obs.NewTelemetry()
	if _, err := native.Run(j.New(), splitBlocks(j, j.blockFor(1)),
		native.Config{Partitions: 4, Collector: j.Collector, Telemetry: nat}); err != nil {
		t.Fatal(err)
	}
	dst := obs.NewTelemetry()
	if _, err := dist.RunLoopback(wcDist(t, j, dst)); err != nil {
		t.Fatal(err)
	}

	for runtime, reg := range map[string]*obs.Registry{"sim": sim, "native": nat.Metrics, "dist": dst.Metrics} {
		have := counterNames(reg)
		for name := range shared {
			if !have[name] {
				t.Errorf("%s registry lacks shared ledger counter %s", runtime, name)
			}
		}
		if got := ReadLedger(reg).MapRecordsIn; got != Reference(j).Records {
			t.Errorf("%s: ledger read back %d map records in, want %d", runtime, got, Reference(j).Records)
		}
	}
	written := counterNames(dst.Metrics) // the shared table plus the dist-only names
	LedgerFromCounters(func(name string) int64 {
		if !written[name] {
			t.Errorf("LedgerFromCounters reads %s, which no runtime writes", name)
		}
		return 0
	})
}

// TestResultIsPerRunOnSharedRegistry: the ledger counts straight into the
// caller's registry, which may outlive a run. Two spilling WordCount runs on
// one Telemetry must report the same per-run Result while the registry holds
// their sum. (A 1-byte threshold files every run, so the spill volume does
// not depend on scheduling; full replication makes every block read local.)
func TestResultIsPerRunOnSharedRegistry(t *testing.T) {
	j := Jobs()[0]
	t.Run("native", func(t *testing.T) {
		tel := obs.NewTelemetry()
		run := func() *native.Result {
			res, err := native.Run(j.New(), splitBlocks(j, j.blockFor(1)), native.Config{
				Partitions: 4, Collector: j.Collector, CacheThreshold: 1, SpillDir: t.TempDir(), Telemetry: tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.SpillFiles == 0 || a.IntermediatePairs == 0 {
			t.Fatalf("first run spilled %d files of %d pairs; the test needs both", a.SpillFiles, a.IntermediatePairs)
		}
		if b.IntermediatePairs != a.IntermediatePairs || b.SpillFiles != a.SpillFiles || b.SpillBytes != a.SpillBytes {
			t.Errorf("second run reports %d pairs, %d files, %d bytes; first %d, %d, %d",
				b.IntermediatePairs, b.SpillFiles, b.SpillBytes, a.IntermediatePairs, a.SpillFiles, a.SpillBytes)
		}
		led := ReadLedger(tel.Metrics)
		if led.MapPairsOut != 2*int64(a.IntermediatePairs) || led.SpillStoredBytes != 2*a.SpillBytes ||
			tel.Metrics.Counter("conserv_spill_files_total").Value() != 2*int64(a.SpillFiles) {
			t.Errorf("registry after two runs: %+v; want twice %d pairs, %d spill bytes, %d files",
				led, a.IntermediatePairs, a.SpillBytes, a.SpillFiles)
		}
	})
	t.Run("dist", func(t *testing.T) {
		tel := obs.NewTelemetry()
		run := func() *dist.Result {
			o := wcDist(t, j, tel)
			o.Blockstore, o.Replication = "local", 3
			o.Tuning.SpillThreshold, o.Tuning.WorkDir = 1, t.TempDir()
			res, err := dist.RunLoopback(o)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.SpillRecords == 0 || a.ReadLocalBytes == 0 {
			t.Fatalf("first run spilled %d records and read %d bytes locally; the test needs both", a.SpillRecords, a.ReadLocalBytes)
		}
		if b.IntermediatePairs != a.IntermediatePairs || b.SpillRecords != a.SpillRecords ||
			b.SpillBytes != a.SpillBytes || b.ReadLocalBytes != a.ReadLocalBytes || b.ReadRemoteBytes != a.ReadRemoteBytes {
			t.Errorf("second run reports %d pairs, %d spill records, %d spill bytes, %d local and %d remote bytes; first %d, %d, %d, %d, %d",
				b.IntermediatePairs, b.SpillRecords, b.SpillBytes, b.ReadLocalBytes, b.ReadRemoteBytes,
				a.IntermediatePairs, a.SpillRecords, a.SpillBytes, a.ReadLocalBytes, a.ReadRemoteBytes)
		}
		led := ReadLedger(tel.Metrics)
		if led.MapPairsOut != 2*a.IntermediatePairs || led.SpillRecords != 2*a.SpillRecords ||
			led.SpillStoredBytes != 2*a.SpillBytes || led.ReadLocalBytes != 2*a.ReadLocalBytes {
			t.Errorf("registry after two runs: %+v; want twice %d pairs, %d spill records, %d spill bytes, %d local bytes",
				led, a.IntermediatePairs, a.SpillRecords, a.SpillBytes, a.ReadLocalBytes)
		}
	})
}

// TestLedgerByteBound: an uncompressed run's stored bytes lie within the
// framing of the payload its frames hold — a counted frame holds its pair
// once, so that payload may be far below the pairs' — and never exceed the
// pairs' payload. The ledger is a counted shape: 40 pairs in 4 frames of
// 10 in 2 runs.
func TestLedgerByteBound(t *testing.T) {
	counted := Ledger{PartitionRecords: 40, PartitionRuns: 2, PartitionRawBytes: 400, PartitionFrameBytes: 40}
	for _, tc := range []struct {
		name          string
		frame, stored int64
		ok            bool
	}{
		{"counted frames", 40, 40 + 4*3 + 2, true},
		{"at the upper end", 40, 40 + 10*40 + 10*2, true},
		{"below the frames' payload", 40, 39, false},
		{"above the framing", 40, 40 + 10*40 + 10*2 + 1, false},
		{"frames hold more than the pairs", 401, 420, false},
	} {
		l := counted
		l.PartitionFrameBytes, l.PartitionStoredBytes = tc.frame, tc.stored
		if err := l.Check(Expected{}, CheckOpts{Faulty: true}); (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
