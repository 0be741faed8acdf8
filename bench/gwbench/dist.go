package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"glasswing/internal/dist"
	"glasswing/internal/obs"
)

// repTimeout bounds one dist repetition: Serve takes no context, so a hung
// cluster is abandoned (its children killed) rather than waited for.
const repTimeout = 60 * time.Second

// procs tracks the worker children this process started, so that an
// interrupt or an error path can kill whatever is still running.
type procs struct {
	mu   sync.Mutex
	live map[*exec.Cmd]struct{}
}

func (p *procs) add(c *exec.Cmd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = make(map[*exec.Cmd]struct{})
	}
	p.live[c] = struct{}{}
}

func (p *procs) remove(c *exec.Cmd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, c)
}

func (p *procs) killAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.live {
		c.Process.Kill()
	}
}

// workerMain is the `gwbench worker` subcommand: one cluster worker in its
// own OS process, exactly what `distnode -join` runs. With -metrics-out it
// collects telemetry and leaves its counter snapshot there for the harness
// to sum; without, telemetry is off.
func workerMain(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	join := fs.String("join", "", "coordinator address")
	spill := fs.Int64("spill", 0, "spill threshold in bytes (0 = never)")
	workdir := fs.String("workdir", "", "scratch directory for replicas and spill files")
	metricsOut := fs.String("metrics-out", "", "write this worker's metrics snapshot here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var tel *obs.Telemetry
	if *metricsOut != "" {
		tel = obs.NewTelemetry()
	}
	// The grace window only matters if the first dial beats the
	// coordinator's listen; it also bounds how long an orphaned worker
	// outlives a dead harness.
	tun := dist.Tuning{SpillThreshold: *spill, WorkDir: *workdir, RejoinGrace: 2 * time.Second}
	if err := dist.Join(*join, "127.0.0.1:0", tun, tel); err != nil {
		fmt.Fprintf(os.Stderr, "gwbench worker: %v\n", err)
		return 1
	}
	// Peak RSS goes to stdout for the harness. It is read from VmHWM, which
	// belongs to this process's own address space; ru_maxrss would not do,
	// because the kernel folds the parent's peak into it at exec.
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(status), "VmHWM:"); ok {
			var kb int64
			fmt.Sscan(rest, &kb)
			fmt.Printf("VmHWM %d\n", kb)
		}
	}
	if tel != nil {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = tel.Metrics.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gwbench worker: writing metrics: %v\n", err)
			return 1
		}
	}
	return 0
}

// distRep is one finished multi-process job.
type distRep struct {
	wall      time.Duration // first spawn to Serve returning
	spawn     time.Duration // time spent starting the children
	res       *dist.Result
	counters  map[string]float64 // coordinator + worker registries, summed
	peakRSSMB float64            // max VmHWM the children reported
}

// freeAddr asks the kernel for an unused loopback port. dist.Serve opens
// its own listener, so the port is released again here; if something else
// grabs it in between, Serve fails with a listen error and the repetition
// aborts.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// runDist runs one job on a cluster of real OS processes: this process
// serves as coordinator and `workers` re-exec'd children join over TCP.
// Nothing but the listen address is shared with the children — blocks
// travel over the sockets as they do for cmd/distnode. tel non-nil makes
// it a traced run on every node.
func (h *harness) runDist(in *input, blocks [][]byte, workers int, tel *obs.Telemetry) (*distRep, error) {
	workdir, err := os.MkdirTemp(h.scratch, "dist-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	o := dist.Options{
		Job: in.job, Workers: workers, Blocks: blocks, NewApp: dist.RegistryResolver,
		Telemetry: tel, KillWorker: -1,
	}
	if in.ooc {
		o.Blockstore, o.Replication = "local", 2
	}

	type served struct {
		res *dist.Result
		err error
	}
	done := make(chan served, 1)
	exited := make(chan error, workers) // one send per child
	cmds := make([]*exec.Cmd, 0, workers)
	outs := make([]*bytes.Buffer, 0, workers)
	errOuts := make([]*bytes.Buffer, 0, workers)

	// reap waits for the children still running, killing them at the
	// deadline, so that none outlives the repetition.
	pending := 0
	reap := func(grace time.Duration) error {
		var first error
		timer := time.NewTimer(grace)
		defer timer.Stop()
		for pending > 0 {
			select {
			case err := <-exited:
				pending--
				if err != nil && first == nil {
					first = err
				}
			case <-timer.C:
				h.children.killAll() // makes the remaining Waits return
				if first == nil {
					first = fmt.Errorf("still running %v after the job ended; killed", grace)
				}
			}
		}
		for _, c := range cmds {
			h.children.remove(c)
		}
		return first
	}
	abandon := func() {
		h.children.killAll()
		reap(5 * time.Second)
	}
	workerLogs := func() string {
		var b bytes.Buffer
		for i, e := range errOuts {
			if e.Len() > 0 {
				fmt.Fprintf(&b, "\n  worker %d: %s", i, bytes.TrimSpace(e.Bytes()))
			}
		}
		return b.String()
	}

	start := time.Now()
	go func() {
		res, err := dist.Serve(addr, o)
		done <- served{res, err}
	}()
	for i := 0; i < workers; i++ {
		args := []string{"worker", "-join", addr, "-workdir", workdir, "-spill", strconv.FormatInt(in.threshold, 10)}
		if tel != nil {
			args = append(args, "-metrics-out", filepath.Join(workdir, fmt.Sprintf("metrics-%d.json", i)))
		}
		cmd := exec.Command(h.self, args...)
		cmd.Env = append(os.Environ(), "TMPDIR="+workdir)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Start(); err != nil {
			abandon()
			return nil, fmt.Errorf("starting worker %d: %w", i, err)
		}
		h.children.add(cmd)
		cmds = append(cmds, cmd)
		outs = append(outs, &stdout)
		errOuts = append(errOuts, &stderr)
		pending++
		go func() { exited <- cmd.Wait() }()
	}
	spawn := time.Since(start)

	var sv served
	timeout := time.After(repTimeout)
wait:
	for {
		select {
		case sv = <-done:
			break wait
		case err := <-exited:
			pending--
			if err != nil {
				abandon()
				return nil, fmt.Errorf("a worker exited (%v) while the job was still running%s", err, workerLogs())
			}
		case <-timeout:
			abandon()
			return nil, fmt.Errorf("dist.Serve did not return within %v; cluster abandoned%s", repTimeout, workerLogs())
		}
	}
	wall := time.Since(start)

	if sv.err != nil {
		abandon()
		return nil, fmt.Errorf("dist.Serve on %s: %w%s", addr, sv.err, workerLogs())
	}
	if err := reap(10 * time.Second); err != nil {
		return nil, fmt.Errorf("worker process: %w%s", err, workerLogs())
	}

	rep := &distRep{wall: wall, spawn: spawn, res: sv.res}
	for _, out := range outs {
		var kb float64
		fmt.Sscanf(out.String(), "VmHWM %f", &kb)
		rep.peakRSSMB = max(rep.peakRSSMB, kb/1024)
	}
	if tel != nil {
		rep.counters = make(map[string]float64)
		addCounters(rep.counters, tel.Metrics.Snapshot())
		for i := range cmds {
			raw, err := os.ReadFile(filepath.Join(workdir, fmt.Sprintf("metrics-%d.json", i)))
			if err != nil {
				return nil, fmt.Errorf("worker %d left no metrics snapshot: %w", i, err)
			}
			var doc snapshot
			if err := json.Unmarshal(raw, &doc); err != nil {
				return nil, fmt.Errorf("worker %d metrics snapshot: %w", i, err)
			}
			addCounters(rep.counters, doc.Metrics)
		}
	}
	return rep, nil
}

// snapshot is the document obs.Registry.WriteJSON writes: what a worker
// child leaves behind and what the service's GET /metrics returns.
type snapshot struct {
	Metrics []obs.Metric `json:"metrics"`
}

// addCounters sums a registry snapshot into acc: counters by value,
// histograms by sample count under name+"#count".
func addCounters(acc map[string]float64, ms []obs.Metric) {
	for _, m := range ms {
		switch m.Type {
		case "counter":
			acc[m.Name] += m.Value
		case "histogram":
			acc[m.Name+"#count"] += float64(m.Count)
		}
	}
}
