package sim

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// Shared is a weighted processor-sharing resource: a capacity of identical
// service units (CPU hardware threads, link bandwidth) divided among the
// currently active flows in proportion to their weights.
//
// A flow of weight w receives service at rate
//
//	UnitRate * w * min(1, Capacity/totalWeight)
//
// so an uncontended flow of weight w progresses at w*UnitRate (but never
// faster than Capacity*UnitRate), and under contention the capacity is split
// proportionally. This models both
//
//   - a CPU pool: UnitRate = ops/sec of one hardware thread, Capacity = the
//     number of hardware threads, weight = the number of software threads an
//     activity runs; and
//   - a shared pipe (NIC, PCIe link, disk): UnitRate = bytes/sec, Capacity=1,
//     weight = 1 per transfer, which degenerates to egalitarian processor
//     sharing.
//
// Completion times are recomputed whenever the active-flow set changes, in
// the classic event-driven PS fashion.
type Shared struct {
	env      *Env
	UnitRate float64
	Capacity float64

	flows   []*psFlow // active, in start order
	totalW  float64
	lastT   float64
	pending *event
}

type psFlow struct {
	remaining float64
	weight    float64
	proc      *Proc
	done      bool
}

// NewShared returns a weighted processor-sharing resource.
func NewShared(env *Env, unitRate, capacity float64) *Shared {
	if unitRate <= 0 || capacity <= 0 {
		panic("sim: NewShared rates must be positive")
	}
	return &Shared{env: env, UnitRate: unitRate, Capacity: capacity}
}

// rateOf returns the current service rate of flow f.
func (s *Shared) rateOf(f *psFlow) float64 {
	scale := 1.0
	if s.totalW > s.Capacity {
		scale = s.Capacity / s.totalW
	}
	return s.UnitRate * f.weight * scale
}

// advance applies elapsed service to all active flows.
func (s *Shared) advance() {
	dt := s.env.now - s.lastT
	if dt > 0 {
		for _, f := range s.flows {
			f.remaining -= s.rateOf(f) * dt
		}
	}
	s.lastT = s.env.now
}

// reschedule cancels the pending completion event and schedules a new one at
// the earliest completion among active flows.
func (s *Shared) reschedule() {
	if s.pending != nil {
		s.pending.canceled = true
		s.pending = nil
	}
	if len(s.flows) == 0 {
		return
	}
	tmin := math.Inf(1)
	for _, f := range s.flows {
		t := f.remaining / s.rateOf(f)
		if t < tmin {
			tmin = t
		}
	}
	if tmin < 0 {
		tmin = 0
	}
	s.pending = s.env.schedule(s.env.now+tmin, s.complete)
}

// complete fires finished flows and reschedules. Runs in scheduler context.
// Finished flows wake by (process name, weight), and in start order where
// those tie: names repeat (one durability or transfer process per chunk),
// and the wake order decides what the woken processes do next.
func (s *Shared) complete() {
	s.pending = nil
	s.advance()
	const eps = 1e-9
	var finished []*psFlow
	for _, f := range s.flows {
		if f.remaining <= eps*math.Max(1, f.weight)*s.UnitRate {
			finished = append(finished, f)
		}
	}
	slices.SortStableFunc(finished, func(a, b *psFlow) int {
		if a.proc.Name != b.proc.Name {
			return strings.Compare(a.proc.Name, b.proc.Name)
		}
		return cmp.Compare(a.weight, b.weight)
	})
	for _, f := range finished {
		s.totalW -= f.weight
		f.done = true
	}
	s.flows = slices.DeleteFunc(s.flows, func(f *psFlow) bool { return f.done })
	s.reschedule()
	for _, f := range finished {
		s.env.wake(f.proc)
	}
}

// Use consumes amount units of service with the given weight, blocking the
// process until the service completes under processor sharing. Zero or
// negative amounts return immediately.
func (s *Shared) Use(p *Proc, amount, weight float64) {
	if amount <= 0 {
		return
	}
	if weight <= 0 {
		weight = 1
	}
	f := &psFlow{remaining: amount, weight: weight, proc: p}
	s.advance()
	s.flows = append(s.flows, f)
	s.totalW += weight
	s.reschedule()
	for !f.done {
		p.park()
	}
}

// TimeFor returns the uncontended service time for amount at weight: the
// lower bound a flow would take on an otherwise idle resource.
func (s *Shared) TimeFor(amount, weight float64) float64 {
	if amount <= 0 {
		return 0
	}
	if weight <= 0 {
		weight = 1
	}
	rate := s.UnitRate * math.Min(weight, s.Capacity)
	return amount / rate
}

// ActiveFlows returns the number of flows currently in service.
func (s *Shared) ActiveFlows() int { return len(s.flows) }

// Utilization returns total active weight divided by capacity (may exceed 1
// when oversubscribed).
func (s *Shared) Utilization() float64 { return s.totalW / s.Capacity }
