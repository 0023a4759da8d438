package netem

import (
	"fmt"
	"math"

	"ptile360/internal/stats"
)

// PacketSample is one delivered packet's timing as the receiver saw it —
// the raw input of a delay-gradient estimator.
type PacketSample struct {
	// SendSec is when the sender put the packet on the wire.
	SendSec float64
	// RecvSec is when the packet arrived at the client.
	RecvSec float64
	// Bytes is the packet size.
	Bytes int
}

// SessionConfig configures one client's packet-level download path.
type SessionConfig struct {
	// Profile is the link schedule. Required.
	Profile *Profile
	// Seed drives the loss process; identical seeds replay identically.
	Seed int64
	// SegmentSec is the media duration of one segment, used to derive the
	// paced sending rate. Required when PaceFactor > 0.
	SegmentSec float64
	// PaceFactor scales the paced sending rate: the server transmits at
	// PaceFactor × sizeBits/SegmentSec instead of dumping the whole
	// segment as one burst. 0 disables pacing (burst dump).
	PaceFactor float64
	// Metrics optionally publishes netem_* instruments; nil is silent.
	Metrics *Metrics
}

// SessionStats aggregates one session's packet accounting.
type SessionStats struct {
	Packets     int
	DropsTail   int
	DropsLoss   int
	Retransmits int
	Downloads   int
}

// SessionNet is a deterministic packet-level download path: request
// propagation, packetization, (optionally paced) sending through the shared
// droptail Link, i.i.d. loss, and RTO-driven retransmission — all solved in
// virtual time. For a fixed (Profile, Seed) every Download sequence is
// bit-identical across runs, machines, and worker counts.
//
// A SessionNet is single-session state, like *lte.Trace in the
// segment-level model, and is not safe for concurrent use.
type SessionNet struct {
	cfg   SessionConfig
	link  *Link
	rng   *stats.RNG
	stats SessionStats

	// packets holds the delivered samples of the most recent Download, in
	// arrival order, reused across calls.
	packets []PacketSample
	// pending is the retransmission heap scratch, reused across calls.
	pending []pendingSend
}

// pendingSend is one packet awaiting (re)transmission.
type pendingSend struct {
	atSec    float64
	seq      int // stable tie-break and FIFO identity
	bytes    int
	attempts int
}

// maxSendAttempts bounds retransmission before a download fails.
const maxSendAttempts = 10

// minRTOSec floors the retransmission timeout.
const minRTOSec = 0.2

// NewSessionNet validates the configuration and builds the path.
func NewSessionNet(cfg SessionConfig) (*SessionNet, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("netem: SessionConfig.Profile is required")
	}
	if cfg.PaceFactor < 0 || math.IsNaN(cfg.PaceFactor) || math.IsInf(cfg.PaceFactor, 0) {
		return nil, fmt.Errorf("netem: bad pace factor %g", cfg.PaceFactor)
	}
	if cfg.PaceFactor > 0 && cfg.SegmentSec <= 0 {
		return nil, fmt.Errorf("netem: PaceFactor %g needs SegmentSec > 0", cfg.PaceFactor)
	}
	link, err := NewLink(cfg.Profile)
	if err != nil {
		return nil, err
	}
	return &SessionNet{cfg: cfg, link: link, rng: stats.NewRNG(cfg.Seed)}, nil
}

// Profile returns the link schedule this path runs over.
func (n *SessionNet) Profile() *Profile { return n.cfg.Profile }

// Stats returns the cumulative packet accounting.
func (n *SessionNet) Stats() SessionStats { return n.stats }

// RateAt returns the bandwidth available to this flow at time t — scheduled
// capacity minus cross traffic, floored at 1 kbit/s. Unlimited capacity
// reports 1 Tbit/s. It seeds estimators the way lte.Trace.At does.
func (n *SessionNet) RateAt(t float64) float64 {
	p := n.link.ParamsAt(t)
	if p.CapacityBps <= 0 {
		return 1e12
	}
	avail := p.CapacityBps - p.CrossBps
	if avail < 1e3 {
		avail = 1e3
	}
	return avail
}

// Packets returns the delivered packet samples of the most recent Download
// in arrival order. The slice is reused by the next Download.
func (n *SessionNet) Packets() []PacketSample { return n.packets }

// Download transfers sizeBits starting at startSec and returns the transfer
// duration in seconds: request propagation, per-MTU packetization, paced or
// burst sending through the droptail queue, loss, and retransmission. It
// fails only when the link is effectively dead (a packet exceeded the
// retransmission budget or the service horizon).
func (n *SessionNet) Download(sizeBits float64, startSec float64) (float64, error) {
	if sizeBits <= 0 || math.IsNaN(sizeBits) || math.IsInf(sizeBits, 0) {
		return 0, fmt.Errorf("netem: bad download size %g bits", sizeBits)
	}
	if math.IsNaN(startSec) || math.IsInf(startSec, 0) || startSec < 0 {
		return 0, fmt.Errorf("netem: bad download start %g", startSec)
	}
	n.packets = n.packets[:0]
	n.pending = n.pending[:0]
	link := n.link

	// The request rides the uplink: half an RTT to reach the server.
	sendBase := startSec + link.ParamsAt(startSec).RTTSec/2

	// Packetize: packet seq carries bytes [off, off+mtu) of the segment,
	// off = seq·mtu, the last one short.
	mtu := link.MTU()
	totalBytes := int(math.Ceil(sizeBits / 8))
	var paceRate float64 // bytes/s on the wire when pacing
	if n.cfg.PaceFactor > 0 {
		paceRate = n.cfg.PaceFactor * sizeBits / n.cfg.SegmentSec / 8
	}
	firstSend := func(seq, off int) pendingSend {
		at := sendBase
		if paceRate > 0 {
			// Interval-budget pacing in closed form: each packet departs
			// once the budget accrued at paceRate covers the bytes before
			// it. A burst dump (paceRate 0) sends everything at sendBase.
			at = sendBase + float64(off)/paceRate
		}
		return pendingSend{atSec: at, seq: seq, bytes: min(mtu, totalBytes-off)}
	}

	// Send in (atSec, seq) order so the FIFO link sees monotone arrivals.
	// First transmissions are already in that order, so they come from a
	// cursor (off, next); only retransmissions, at +RTO, enter the pending
	// heap. Taking the smaller head under pendingLess at each step pops
	// exactly what one heap over every packet would.
	done := startSec
	off := 0
	next := firstSend(0, 0)
	for off < totalBytes || len(n.pending) > 0 {
		var ps pendingSend
		if off < totalBytes && (len(n.pending) == 0 || pendingLess(next, n.pending[0])) {
			ps = next
			if off += mtu; off < totalBytes {
				next = firstSend(ps.seq+1, off)
			}
		} else {
			ps = n.popPending()
		}
		if ps.attempts >= maxSendAttempts {
			return 0, fmt.Errorf("netem: packet seq %d dropped %d times at t=%.3f: link dead", ps.seq, ps.attempts, ps.atSec)
		}
		sp := link.spanAt(ps.atSec)
		rto := math.Max(2*sp.p.RTTSec, minRTOSec)
		if sp.p.LossProb > 0 && n.rng.Float64() < sp.p.LossProb {
			n.stats.DropsLoss++
			n.cfg.Metrics.dropLoss()
			n.retransmit(ps, rto)
			continue
		}
		served, dropped := link.send(ps.bytes, sp)
		if dropped {
			n.stats.DropsTail++
			n.cfg.Metrics.dropTail()
			n.retransmit(ps, rto)
			continue
		}
		if math.IsInf(served, 1) {
			return 0, fmt.Errorf("netem: packet seq %d exceeded service horizon at t=%.3f: link dead", ps.seq, ps.atSec)
		}
		recv := served + sp.p.RTTSec/2
		n.stats.Packets++
		n.cfg.Metrics.packet(served - ps.atSec)
		n.packets = append(n.packets, PacketSample{SendSec: ps.atSec, RecvSec: recv, Bytes: ps.bytes})
		if recv > done {
			done = recv
		}
	}
	n.stats.Downloads++
	n.cfg.Metrics.download()
	dur := done - startSec
	if dur <= 0 {
		dur = 1e-9
	}
	return dur, nil
}

func (n *SessionNet) retransmit(ps pendingSend, rto float64) {
	n.stats.Retransmits++
	n.cfg.Metrics.retransmit()
	ps.atSec += rto
	ps.attempts++
	n.pushPending(ps)
}

// pushPending / popPending implement a binary min-heap over (atSec, seq) for
// the retransmissions awaiting their RTO.
func (n *SessionNet) pushPending(ps pendingSend) {
	n.pending = append(n.pending, ps)
	i := len(n.pending) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pendingLess(n.pending[i], n.pending[parent]) {
			break
		}
		n.pending[i], n.pending[parent] = n.pending[parent], n.pending[i]
		i = parent
	}
}

func (n *SessionNet) popPending() pendingSend {
	top := n.pending[0]
	last := len(n.pending) - 1
	n.pending[0] = n.pending[last]
	n.pending = n.pending[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(n.pending) && pendingLess(n.pending[l], n.pending[min]) {
			min = l
		}
		if r < len(n.pending) && pendingLess(n.pending[r], n.pending[min]) {
			min = r
		}
		if min == i {
			break
		}
		n.pending[i], n.pending[min] = n.pending[min], n.pending[i]
		i = min
	}
	return top
}

func pendingLess(a, b pendingSend) bool {
	if a.atSec != b.atSec {
		return a.atSec < b.atSec
	}
	return a.seq < b.seq
}
