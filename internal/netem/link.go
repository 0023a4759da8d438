package netem

import (
	"fmt"
	"math"
)

// Link is the bottleneck: a droptail FIFO queue of app packets drained at
// the residual capacity the competing fluid flow leaves over
// (CapacityBps − CrossBps, floored at zero — cross traffic interleaves
// with our packets in service, so our flow's goodput is the residual). All
// timing is computed analytically over the piecewise-constant schedule —
// no wall clock, no goroutines — so a Link is bit-deterministic and can be
// driven in pure virtual time.
//
// A Link is single-flow and not safe for concurrent use; SessionNet and
// Conn each own one per direction and serialize access.
type Link struct {
	// cur walks the compiled schedule alongside the queue clock.
	cur cursor
	mtu int

	// now is the time the queue state was last advanced to. Sends must be
	// non-decreasing in time (FIFO); earlier sends are clamped to now.
	now float64
	// last is the span of the most recent send (of time 0 before any); it
	// answers repeat lookups at that time — the next advance from now, and
	// every packet of a burst.
	last span
	// queuedBytes is this flow's bottleneck backlog. QueueBytes bounds it:
	// the droptail cap models our flow's share of the buffer.
	queuedBytes float64

	// drops counts droptail losses; cross-fluid overflow is not counted
	// (the competing flow's losses are not our flow's signal).
	drops int
}

// solveHorizonSec bounds the service solver: if a packet would not finish
// service within this many seconds of its arrival the link is effectively
// dead and Send reports +Inf.
const solveHorizonSec = 3600

// NewLink validates and compiles the profile into a link.
func NewLink(p *Profile) (*Link, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l := &Link{cur: cursor{s: p.compile()}, mtu: p.MTU()}
	l.last = l.cur.resolve(0)
	return l, nil
}

// ParamsAt returns the scheduled parameters in force at time t.
func (l *Link) ParamsAt(t float64) Params { return l.spanAt(t).p }

// spanAt resolves the schedule at t, reusing the last send's span.
func (l *Link) spanAt(t float64) span {
	if math.Float64bits(t) == math.Float64bits(l.last.t) {
		return l.last
	}
	return l.cur.resolve(t)
}

// MTU returns the packetization unit.
func (l *Link) MTU() int { return l.mtu }

// Now returns the time the queue state was last advanced to.
func (l *Link) Now() float64 { return l.now }

// QueuedBytes returns the current bottleneck backlog.
func (l *Link) QueuedBytes() float64 { return l.queuedBytes }

// Drops returns the cumulative droptail loss count for app packets.
func (l *Link) Drops() int { return l.drops }

// residualRate returns the service rate our flow sees in bytes/s, or -1
// for unlimited capacity.
func residualRate(p Params) float64 {
	if p.CapacityBps <= 0 {
		return -1
	}
	r := (p.CapacityBps - p.CrossBps) / 8
	if r < 0 {
		return 0
	}
	return r
}

// advance evolves the queue state from l.now to t: the backlog drains at
// the residual capacity, piecewise-constant interval by interval. Capacity
// 0 means unlimited: the queue empties instantly.
func (l *Link) advance(t float64) {
	for l.now < t {
		sp := l.spanAt(l.now)
		end := math.Min(t, sp.next)
		if end <= l.now {
			// Defensive: a boundary exactly at now must not spin.
			end = t
		}
		dt := end - l.now
		switch r := residualRate(sp.p); {
		case r < 0:
			l.queuedBytes = 0
		case r > 0:
			l.queuedBytes -= r * dt
			if l.queuedBytes < 0 {
				l.queuedBytes = 0
			}
		}
		l.now = end
	}
	if t > l.now {
		l.now = t
	}
}

// Send enqueues one app packet of the given size at atSec and returns the
// time it finishes service at the bottleneck (propagation delay is the
// caller's concern). dropped reports a droptail loss; deliveredSec is then
// meaningless. A send earlier than the last one is clamped to link time.
func (l *Link) Send(bytes int, atSec float64) (deliveredSec float64, dropped bool) {
	if bytes <= 0 {
		return atSec, false
	}
	return l.send(bytes, l.spanAt(atSec))
}

// send is Send for a positive size at a time the caller has already
// resolved: sp is spanAt(send time), so the send time is looked up once.
func (l *Link) send(bytes int, sp span) (deliveredSec float64, dropped bool) {
	if sp.t < l.now {
		sp = l.spanAt(l.now)
	}
	l.advance(sp.t)
	l.last = sp
	if sp.p.CapacityBps <= 0 {
		// Unlimited capacity: no queue, instantaneous service.
		return sp.t, false
	}
	if sp.p.QueueBytes > 0 && l.queuedBytes+float64(bytes) > sp.p.QueueBytes {
		l.drops++
		return 0, true
	}
	// FIFO: everything queued at arrival is ahead of this packet. Service
	// completes when the residual-capacity integral from the send time
	// covers backlog + the packet itself.
	deliveredSec = l.serviceDone(sp, l.queuedBytes+float64(bytes))
	l.queuedBytes += float64(bytes)
	return deliveredSec, false
}

// serviceDone returns the time at which `bytes` of queued data ahead of and
// including a packet arriving at sp.t have been serviced. It walks the
// schedule ahead on a copy of the cursor, so the link's own cursor stays
// at the queue clock for the next send.
func (l *Link) serviceDone(sp span, bytes float64) float64 {
	from := sp.t
	t := from
	remaining := bytes
	c := l.cur
	for remaining > 0 {
		if t != sp.t {
			sp = c.resolve(t)
		}
		rate := residualRate(sp.p)
		if rate < 0 {
			return t
		}
		end := sp.next
		if rate > 0 {
			need := remaining / rate
			if math.IsInf(end, 1) || t+need <= end {
				return t + need
			}
			remaining -= rate * (end - t)
		} else if math.IsInf(end, 1) {
			// Cross traffic saturates the link forever: never serviced.
			return math.Inf(1)
		}
		t = end
		if t-from > solveHorizonSec {
			return math.Inf(1)
		}
	}
	return t
}

// Reset rewinds the link to an empty queue at time 0, keeping the schedule.
func (l *Link) Reset() {
	l.now = 0
	l.last = l.cur.resolve(0)
	l.queuedBytes = 0
	l.drops = 0
}

// String describes the link state for logs and test failures.
func (l *Link) String() string {
	return fmt.Sprintf("netem.Link{t=%.3f queued=%.0fB drops=%d}", l.now, l.queuedBytes, l.drops)
}
