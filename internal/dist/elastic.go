package dist

import (
	"fmt"
	"strconv"
	"strings"
)

// ElasticEvent schedules one membership change during a job, triggered by
// scheduler progress: the event fires once AfterMapDone map tasks have
// resolved (or, when AfterReduceDone > 0, once that many reduce partitions
// have been accepted). Events fire strictly in declaration order; an event
// whose threshold is already met fires immediately after its predecessor.
//
//   - "join": spawn one new worker into the cluster (loopback-only — a
//     multi-process cluster admits joiners whenever they dial in).
//   - "drain": gracefully remove Worker — stop assigning it work, hand its
//     partitions off to survivors, then release it.
//   - "kill": murder Worker abruptly (loopback-only), exercising the death
//     recovery path.
//   - "restart": crash the coordinator itself. With a journal configured,
//     the loopback runner restarts it and resumes from the checkpoint.
type ElasticEvent struct {
	Kind            string // "join", "drain", "kill" or "restart"
	Worker          int    // target worker id (drain/kill); ignored otherwise
	AfterMapDone    int    // fire once this many map tasks have resolved
	AfterReduceDone int    // when > 0, fire once this many partitions are accepted instead
}

// ParseElastic parses a comma-separated elastic schedule into the events
// Options.Elastic takes. Each event is spelled
//
//	kind[:worker]@threshold
//
// where kind is join, drain, kill or restart; worker is the target id
// (required for drain and kill, forbidden for join and restart); and
// threshold is either N — fire once N map tasks have resolved — or rN —
// fire once N reduce partitions have been accepted. Example:
//
//	join@2,join@3,kill:1@6,drain:0@8,restart@r1
func ParseElastic(spec string) ([]ElasticEvent, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var evs []ElasticEvent
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		head, thresh, ok := strings.Cut(field, "@")
		if !ok {
			return nil, fmt.Errorf("dist: elastic event %q: missing @threshold", field)
		}
		kind, workerStr, hasWorker := strings.Cut(head, ":")
		ev := ElasticEvent{Kind: kind}
		switch kind {
		case "drain", "kill":
			if !hasWorker {
				return nil, fmt.Errorf("dist: elastic event %q: %s needs a target (%s:worker@threshold)", field, kind, kind)
			}
			w, err := strconv.Atoi(workerStr)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("dist: elastic event %q: bad worker id %q", field, workerStr)
			}
			ev.Worker = w
		case "join", "restart":
			if hasWorker {
				return nil, fmt.Errorf("dist: elastic event %q: %s takes no target", field, kind)
			}
		default:
			return nil, fmt.Errorf("dist: elastic event %q: unknown kind %q (join, drain, kill, restart)", field, kind)
		}
		if rest, isReduce := strings.CutPrefix(thresh, "r"); isReduce {
			n, err := strconv.Atoi(rest)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("dist: elastic event %q: bad reduce threshold %q", field, thresh)
			}
			ev.AfterReduceDone = n
		} else {
			n, err := strconv.Atoi(thresh)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("dist: elastic event %q: bad map threshold %q", field, thresh)
			}
			ev.AfterMapDone = n
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// HasRestart reports whether a schedule contains a coordinator restart. A
// resumed coordinator reads Options.JournalPath, so Serve's callers must set
// one; RunLoopback keeps its own when they leave it empty.
func HasRestart(evs []ElasticEvent) bool {
	for _, ev := range evs {
		if ev.Kind == "restart" {
			return true
		}
	}
	return false
}
