package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// loopCluster is the job-scoped state of one in-process cluster: the
// worker registration table the kill hook consults, the worker error list,
// and the job's ledger. Nothing here is package- or process-global —
// every RunLoopback call owns a fresh loopCluster, which is what makes
// concurrent jobs in one process (the resident job service's steady state)
// unable to cross-contaminate each other's ledgers, kill targets or
// results.
type loopCluster struct {
	led *ledger

	regMu      sync.Mutex
	registered map[int]func() // kill functions by worker id
	doomed     map[int]bool   // killed before its worker registered

	wg         sync.WaitGroup
	errMu      sync.Mutex
	workerErrs []error
}

func (lc *loopCluster) fail(err error) {
	lc.errMu.Lock()
	lc.workerErrs = append(lc.workerErrs, err)
	lc.errMu.Unlock()
}

// kill murders the worker with this cluster id, or — if its goroutine has
// not registered yet — has register murder it on arrival.
func (lc *loopCluster) kill(id int) {
	lc.regMu.Lock()
	victim := lc.registered[id]
	lc.doomed[id] = victim == nil
	lc.regMu.Unlock()
	if victim != nil {
		victim()
	}
}

// register records a welcomed worker's kill function for the kill hook.
func (lc *loopCluster) register(id int, kill func()) {
	lc.regMu.Lock()
	lc.registered[id] = kill
	doomed := lc.doomed[id]
	lc.regMu.Unlock()
	if doomed {
		kill()
	}
}

// retryListen re-binds addr, retrying while the dying coordinator's socket
// lingers in the kernel — the restart path needs the exact address back
// because every surviving worker is redialing it.
func retryListen(addr string) (net.Listener, error) {
	var lastErr error
	for i := 0; i < 100; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("dist: restart re-listen %s: %w", addr, lastErr)
}

// RunLoopback runs one distributed job entirely in-process: the coordinator
// and o.Workers worker nodes are goroutines connected through real
// 127.0.0.1 TCP sockets, so every shuffle byte crosses the kernel's TCP
// stack and every transport policy (framing, windows, heartbeats, death
// detection) is exercised exactly as in a multi-process deployment. All
// nodes share one conservation ledger, counting straight into o.Telemetry's
// registry (complete once the whole cluster has quiesced).
//
// Elasticity is fully wired: o.Elastic join events spawn fresh worker
// goroutines mid-job, drains hand partitions off and release their worker,
// kills exercise death recovery, and restart events crash the coordinator —
// which RunLoopback then relaunches on the same address, resuming from
// o.JournalPath while the surviving workers redial in. Without a
// JournalPath, a restart schedule gets a throwaway journal under
// o.Tuning.WorkDir (or the OS temp dir), removed when the job ends.
//
// RunLoopback is safe for concurrent use: every call builds its own
// cluster (listener, workers, kill table, ledger), so a process may run
// many jobs at once — give each call its own o.Telemetry and each job's
// counters and spans stay independent.
func RunLoopback(o Options) (*Result, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	resolve := o.resolver()

	// Fold the legacy single-kill knob into the elastic schedule so the
	// coordinator has one churn pipeline.
	if o.KillWorker >= 0 && o.KillWorker < o.Workers {
		o.Elastic = append(append([]ElasticEvent(nil), o.Elastic...), ElasticEvent{
			Kind: "kill", Worker: o.KillWorker, AfterMapDone: o.KillAfterMapDone,
		})
		o.KillWorker = -1
	}
	hasRestart := HasRestart(o.Elastic)
	if hasRestart && o.JournalPath == "" {
		// The relaunched coordinator resumes in this process, so a
		// throwaway journal serves; it goes when the job ends.
		jf, err := os.CreateTemp(o.Tuning.WorkDir, "glasswing-journal-*")
		if err != nil {
			return nil, fmt.Errorf("dist: journal: %w", err)
		}
		jf.Close()
		defer os.Remove(jf.Name())
		o.JournalPath = jf.Name()
	}
	// Workers must outlive a coordinator restart: give them a redial grace
	// window unless the caller tuned one explicitly.
	wtun := o.Tuning
	if wtun.RejoinGrace == 0 && (hasRestart || o.JournalPath != "") {
		wtun.RejoinGrace = 15 * time.Second
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dist: loopback listen: %w", err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	lc := &loopCluster{
		led:        newLedger(o.Telemetry),
		registered: make(map[int]func()),
		doomed:     make(map[int]bool),
	}

	var exitMu sync.Mutex
	var exited []int
	exits := make(chan struct{}, 1)
	coordGone := make(chan struct{})
	spawn := func(joiner bool) {
		lc.wg.Add(1)
		go func() {
			defer lc.wg.Done()
			id := -1
			killed, err := runWorker(workerConfig{
				coordAddr:  addr,
				listenAddr: "127.0.0.1:0",
				tun:        wtun,
				led:        lc.led,
				resolve:    resolve,
				mapFault:   o.MapFault,
				journal:    o.Journal,
				coordGone:  coordGone,
				onWelcome: func(i int, kill func()) {
					id = i
					lc.register(i, kill)
				},
			})
			if !killed && err != nil {
				lc.fail(err)
			}
			if joiner {
				exitMu.Lock()
				exited = append(exited, id)
				exitMu.Unlock()
				select {
				case exits <- struct{}{}:
				default: // a wake is pending already
				}
			}
		}()
	}
	for i := 0; i < o.Workers; i++ {
		spawn(false)
	}
	// Joiners are counted here, where they are launched, so the count
	// survives a coordinator restart: a resumed coordinator holds reduce
	// back until it has admitted every one that still runs.
	hooks := loopHooks{kill: lc.kill, exits: exits}
	hooks.spawn = func() {
		hooks.joiners++
		spawn(true)
	}
	hooks.exited = func() []int {
		exitMu.Lock()
		defer exitMu.Unlock()
		return exited
	}

	// The restart loop: a scheduled coordinator crash surfaces as
	// restartCrash; re-listen on the same address and resume from the
	// journal with the already-fired elastic events sliced off.
	so := o
	var res *Result
	for {
		res, err = serve(ln, so, lc.led, hooks)
		var rc *restartCrash
		if err == nil || !errors.As(err, &rc) {
			break
		}
		ln.Close()
		so.Elastic, so.Resume = so.Elastic[min(rc.fired, len(so.Elastic)):], true
		if ln, err = retryListen(addr); err != nil {
			break
		}
	}

	// Close the listener before waiting: a worker stuck in cluster
	// formation (possible only if serve already failed) errors out instead
	// of hanging, and one redialing the coordinator gives up at once
	// instead of waiting out its rejoin grace.
	ln.Close()
	close(coordGone)
	lc.wg.Wait()

	if err != nil {
		return nil, err
	}
	lc.errMu.Lock()
	defer lc.errMu.Unlock()
	for _, werr := range lc.workerErrs {
		if werr != nil {
			return nil, fmt.Errorf("dist: worker goroutine: %w", werr)
		}
	}
	lc.led.fill(res)
	return res, nil
}
