// Command gwbench is the repository's benchmark: job wall clock for the
// native engine, a cluster of real OS processes and the job service, on four
// named workloads, with per-layer attribution from a separate traced run.
// bench/README.md says what every metric means and what each timer
// includes; BENCHMARK.json at the repository root is the contract a driver
// runs it under.
//
//	gwbench -seed 1                        all workloads, end to end and per layer
//	gwbench -check                         the same at 1/64 size, 2 repetitions
//	gwbench -repeat 2                      the whole set twice, medians compared
//	gwbench -workload wc-zipf -seed 7 -seconds 24 -trace 0    one contract run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"glasswing/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gwbench:", err)
		os.Exit(1)
	}
}

// report is the last line of a contract run.
type report struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gwbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run only this workload and end with the contract's JSON line (default: all)")
		seed     = fs.Int64("seed", 1, "input seed; `datagen -seed N` yields the same bytes")
		seconds  = fs.Float64("seconds", 24, "measuring time per workload run")
		trace    = fs.Int("trace", -1, "with -workload: 0 = end-to-end metrics, telemetry off; 1 = per-layer metrics from the traced run")
		check    = fs.Bool("check", false, "smoke mode: 1/64 size, 2 repetitions, no clock")
		repeat   = fs.Int("repeat", 1, "run the whole set this many times and compare the medians against the bounds")
		history  = fs.String("append-history", "", "append one JSON line with this run's metrics to the file")
		traceOut = fs.String("out", "", "write the traced runs' spans as a Chrome trace to the file")
		scratch  = fs.String("scratch", ".bench_build", "directory for temporary files (spill, block replicas); created if missing")
		wcMiB    = fs.Int("wc-zipf-mib", 16, "wc-zipf input size")
		tsMiB    = fs.Int("ts-uniform-mib", 32, "ts-uniform input size")
		oocMiB   = fs.Int("wc-ooc-mib", 16, "wc-ooc input size")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	all := specs(*wcMiB, *tsMiB, *oocMiB)
	if *workload != "" {
		var picked []spec
		for _, sp := range all {
			if sp.name == *workload {
				picked = append(picked, sp)
			}
		}
		if picked == nil {
			return fmt.Errorf("no workload %q", *workload)
		}
		all = picked
	}
	b, div := budget{seconds: *seconds}, 1
	if *check {
		b, div = budget{reps: 2}, 64
	} else if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*scratch, "gwbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h := &harness{self: self, scratch: dir, epoch: time.Now()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		if _, ok := <-sig; ok {
			h.children.killAll()
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()

	commit := "unknown"
	if desc, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(desc))
	}
	fmt.Fprintf(out, "gwbench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %d dist workers, %d service clients\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, distWorkers, svcClients)

	wantE2E, wantLayers := *trace != 1, *trace != 0
	var sets []map[string]*metrics // one per -repeat round: workload → every metric measured
	total := new(tally)
	for round := 0; round < *repeat; round++ {
		set := make(map[string]*metrics)
		for _, sp := range all {
			m, t, err := h.runWorkload(out, sp, *seed, b, div, wantE2E, wantLayers)
			if err != nil {
				return err
			}
			set[sp.name] = m
			total.add(t)
			if t.firstErr != nil {
				fmt.Fprintf(out, "%-12s FAILED operation: %v\n", sp.name, t.firstErr)
			}
		}
		sets = append(sets, set)
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", total.attempted, total.failed)
	if *repeat > 1 {
		compare(out, all, sets)
	}
	if *traceOut != "" {
		if err := h.writeTrace(*traceOut); err != nil {
			return err
		}
	}
	if *history != "" {
		if err := appendHistory(*history, commit, *seed, sets[len(sets)-1]); err != nil {
			return err
		}
	}

	if *workload != "" && *trace >= 0 {
		defs := endToEndDefs
		if *trace == 1 {
			defs = perLayerDefs
		}
		rep := report{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed,
			Metrics: make(map[string]reportMetric)}
		for _, d := range defs {
			rep.Metrics[d.name] = reportMetric{sets[0][*workload].vals[d.name].value, d.unit}
		}
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return nil
}

// runWorkload sets one workload up, measures it end to end and/or per
// layer, prints every metric and returns them merged.
func (h *harness) runWorkload(out io.Writer, sp spec, seed int64, b budget, div int, wantE2E, wantLayers bool) (*metrics, *tally, error) {
	// setup_s is the median of several set-ups: at least minSetups, and
	// more while they are cheap, so that a 10 ms set-up is not one sample.
	const minSetups, maxSetups, setupTime = 3, 50, time.Second
	var (
		in     *input
		svc    *service
		setupS []float64
	)
	begin, t0 := time.Now(), time.Now()
	more := func() bool {
		if !wantE2E || b.seconds == 0 {
			return len(setupS) < 1
		}
		return len(setupS) < minSetups || (len(setupS) < maxSetups && time.Since(begin) < setupTime)
	}
	for more() {
		if svc != nil {
			svc.stop()
		}
		t0 = time.Now()
		var err error
		if in, err = prepare(sp, seed, div); err != nil {
			return nil, nil, err
		}
		if svc, err = startService(h.scratch); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer svc.stop()
	fmt.Fprintf(out, "%-12s %s, %d bytes in %d blocks, %d partitions; %s\n",
		sp.name, sp.app, len(in.data), len(in.blocks), in.partitions, sp.why)

	all := newMetrics()
	t := new(tally)
	if wantE2E {
		m, et, err := h.endToEnd(in, svc, b)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		m.set("setup_s", median(setupS), len(setupS))
		if err := m.print(out, sp.name, endToEndDefs); err != nil {
			return nil, nil, err
		}
		all, t = m, et
	}
	if wantLayers {
		h.root = h.spanID.Add(1)
		h.span("bench/setup", t0, t0.Add(time.Duration(setupS[len(setupS)-1]*float64(time.Second))))
		m, lt, err := h.layers(in, svc, b)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		h.spans.Span(obs.Span{Node: harnessNode, Stage: "bench/" + sp.name, ID: h.root,
			Start: t0.Sub(h.epoch).Seconds(), End: time.Since(h.epoch).Seconds()})
		if err := m.print(out, sp.name, perLayerDefs); err != nil {
			return nil, nil, err
		}
		for k, v := range m.vals {
			all.vals[k] = v
		}
		t.add(lt)
	}
	return all, t, nil
}

// compare prints, for every end-to-end metric and workload, the value from
// each round, by how much each later round is worse than the first, and
// the bound; a pair outside its bound is marked. Then the per-layer counts
// that must be identical between rounds.
func compare(out io.Writer, all []spec, sets []map[string]*metrics) {
	fmt.Fprintf(out, "\nrepeatability: each later round against the first (positive = worse)\n")
	outside := 0
	for _, sp := range all {
		for _, d := range endToEndDefs {
			first := sets[0][sp.name].vals[d.name].value
			fmt.Fprintf(out, "%-12s %-16s %12.6g", sp.name, d.name, first)
			for _, set := range sets[1:] {
				v := set[sp.name].vals[d.name].value
				w := d.worse(first, v)
				mark := ""
				if w > d.bound {
					mark = " OUTSIDE"
					outside++
				}
				fmt.Fprintf(out, " %12.6g (%+6.1f%%%s)", v, 100*w, mark)
			}
			fmt.Fprintf(out, "  bound %.0f%%\n", 100*d.bound)
		}
	}
	fmt.Fprintf(out, "%d pair(s) outside their bound\n", outside)

	// Counts the program makes that must repeat exactly for a fixed seed.
	differ := 0
	for _, sp := range all {
		if _, traced := sets[0][sp.name].vals["native.pairs"]; !traced {
			continue
		}
		for _, name := range []string{"native.pairs", "dist.pairs", "dist.ingest_bytes", "dist.read_local+remote_bytes"} {
			count := func(set map[string]*metrics) float64 {
				if name == "dist.read_local+remote_bytes" {
					return set[sp.name].vals["dist.read_local_bytes"].value + set[sp.name].vals["dist.read_remote_bytes"].value
				}
				return set[sp.name].vals[name].value
			}
			fmt.Fprintf(out, "%-12s %-28s", sp.name, name)
			mark := ""
			for _, set := range sets {
				fmt.Fprintf(out, " %12.0f", count(set))
				if count(set) != count(sets[0]) {
					mark = " DIFFERS"
				}
			}
			if mark != "" {
				differ++
			}
			fmt.Fprintf(out, "%s\n", mark)
		}
	}
	fmt.Fprintf(out, "%d exact count(s) differ between rounds\n", differ)
}

// appendHistory adds one line to the append-only trajectory: every metric
// of every workload, keyed by commit.
func appendHistory(path, commit string, seed int64, set map[string]*metrics) error {
	workloads := make(map[string]map[string]float64)
	for name, m := range set {
		workloads[name] = make(map[string]float64)
		for k, v := range m.vals {
			workloads[name][k] = v.value
		}
	}
	line, err := json.Marshal(struct {
		Commit    string                        `json:"commit"`
		Date      string                        `json:"date"`
		Seed      int64                         `json:"seed"`
		Nproc     int                           `json:"nproc"`
		Workloads map[string]map[string]float64 `json:"workloads"`
	}{commit, time.Now().UTC().Format(time.RFC3339), seed, runtime.NumCPU(), workloads})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
