package netem

import (
	"fmt"
	"math"
	"testing"

	"ptile360/internal/stats"
)

// refLink is the link as it was before the schedule cursor: every lookup is
// a cold schedule.at / schedule.nextBoundary binary search. It is the
// reference the cursor-driven Link must match bit for bit.
type refLink struct {
	sched       *schedule
	now         float64
	queuedBytes float64
	drops       int
}

func (l *refLink) advance(t float64) {
	for l.now < t {
		p := l.sched.at(l.now)
		end := math.Min(t, l.sched.nextBoundary(l.now))
		if end <= l.now {
			end = t
		}
		dt := end - l.now
		switch r := residualRate(p); {
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

func (l *refLink) Send(bytes int, atSec float64) (float64, bool) {
	if bytes <= 0 {
		return atSec, false
	}
	if atSec < l.now {
		atSec = l.now
	}
	l.advance(atSec)
	p := l.sched.at(atSec)
	if p.CapacityBps <= 0 {
		return atSec, false
	}
	if p.QueueBytes > 0 && l.queuedBytes+float64(bytes) > p.QueueBytes {
		l.drops++
		return 0, true
	}
	delivered := l.serviceDone(atSec, l.queuedBytes+float64(bytes))
	l.queuedBytes += float64(bytes)
	return delivered, false
}

func (l *refLink) serviceDone(from, bytes float64) float64 {
	t := from
	remaining := bytes
	for remaining > 0 {
		p := l.sched.at(t)
		rate := residualRate(p)
		if rate < 0 {
			return t
		}
		end := l.sched.nextBoundary(t)
		if rate > 0 {
			need := remaining / rate
			if math.IsInf(end, 1) || t+need <= end {
				return t + need
			}
			remaining -= rate * (end - t)
		} else if math.IsInf(end, 1) {
			return math.Inf(1)
		}
		t = end
		if t-from > solveHorizonSec {
			return math.Inf(1)
		}
	}
	return t
}

// refSession is SessionNet.Download as it was before the first-send
// cursor: every packet of the segment enters one (atSec, seq) min-heap,
// over a refLink.
type refSession struct {
	cfg     SessionConfig
	link    *refLink
	mtu     int
	rng     *stats.RNG
	stats   SessionStats
	packets []PacketSample
	pending []pendingSend
}

func newRefSession(cfg SessionConfig) *refSession {
	return &refSession{
		cfg:  cfg,
		link: &refLink{sched: cfg.Profile.compile()},
		mtu:  cfg.Profile.MTU(),
		rng:  stats.NewRNG(cfg.Seed),
	}
}

func (n *refSession) Download(sizeBits float64, startSec float64) (float64, error) {
	n.packets = n.packets[:0]
	n.pending = n.pending[:0]
	p0 := n.link.sched.at(startSec)
	sendBase := startSec + p0.RTTSec/2
	totalBytes := int(math.Ceil(sizeBits / 8))
	var paceRate float64
	if n.cfg.PaceFactor > 0 {
		paceRate = n.cfg.PaceFactor * sizeBits / n.cfg.SegmentSec / 8
	}
	seq := 0
	var sentBytes int
	for off := 0; off < totalBytes; off += n.mtu {
		b := n.mtu
		if off+b > totalBytes {
			b = totalBytes - off
		}
		at := sendBase
		if paceRate > 0 {
			at = sendBase + float64(sentBytes)/paceRate
		}
		n.push(pendingSend{atSec: at, seq: seq, bytes: b})
		seq++
		sentBytes += b
	}
	done := startSec
	for len(n.pending) > 0 {
		ps := n.pop()
		if ps.attempts >= maxSendAttempts {
			return 0, fmt.Errorf("netem: packet seq %d dropped %d times at t=%.3f: link dead", ps.seq, ps.attempts, ps.atSec)
		}
		pAt := n.link.sched.at(ps.atSec)
		rto := math.Max(2*pAt.RTTSec, minRTOSec)
		if pAt.LossProb > 0 && n.rng.Float64() < pAt.LossProb {
			n.stats.DropsLoss++
			n.retransmit(ps, rto)
			continue
		}
		served, dropped := n.link.Send(ps.bytes, ps.atSec)
		if dropped {
			n.stats.DropsTail++
			n.retransmit(ps, rto)
			continue
		}
		if math.IsInf(served, 1) {
			return 0, fmt.Errorf("netem: packet seq %d exceeded service horizon at t=%.3f: link dead", ps.seq, ps.atSec)
		}
		recv := served + pAt.RTTSec/2
		n.stats.Packets++
		n.packets = append(n.packets, PacketSample{SendSec: ps.atSec, RecvSec: recv, Bytes: ps.bytes})
		if recv > done {
			done = recv
		}
	}
	n.stats.Downloads++
	dur := done - startSec
	if dur <= 0 {
		dur = 1e-9
	}
	return dur, nil
}

func (n *refSession) retransmit(ps pendingSend, rto float64) {
	n.stats.Retransmits++
	ps.atSec += rto
	ps.attempts++
	n.push(ps)
}

func (n *refSession) push(ps pendingSend) {
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

func (n *refSession) pop() pendingSend {
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

// downloadCase is one differential scenario: a profile spec, a sending
// mode, and a download cadence.
type downloadCase struct {
	spec string
	// prof, when set, is used instead of parsing spec.
	prof      *Profile
	paced     bool
	startSec  float64
	sizeBits  float64
	gapSec    float64
	downloads int
}

// checkDownloadsMatchReference runs the same download sequence through
// SessionNet and the reference and fails on the first difference in
// duration, error, delivered packets, stats, or link state.
func checkDownloadsMatchReference(t *testing.T, tc downloadCase, seed int64) {
	t.Helper()
	p := tc.prof
	if p == nil {
		var err error
		if p, err = ParseProfile(tc.spec); err != nil {
			t.Fatal(err)
		}
	}
	cfg := SessionConfig{Profile: p, Seed: seed}
	if tc.paced {
		cfg.SegmentSec, cfg.PaceFactor = 1, 1.25
	}
	got, err := NewSessionNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSession(cfg)
	bits := math.Float64bits
	tWall := tc.startSec
	for i := 0; i < tc.downloads; i++ {
		// Vary the size so packet counts and last-packet sizes move.
		size := tc.sizeBits * (0.5 + float64(i%7)/6)
		dg, eg := got.Download(size, tWall)
		dr, er := ref.Download(size, tWall)
		if fmt.Sprint(eg) != fmt.Sprint(er) {
			t.Fatalf("download %d at t=%g: error %v, reference %v", i, tWall, eg, er)
		}
		if bits(dg) != bits(dr) {
			t.Fatalf("download %d at t=%g: duration %v, reference %v", i, tWall, dg, dr)
		}
		pg, pr := got.Packets(), ref.packets
		if len(pg) != len(pr) {
			t.Fatalf("download %d: %d packets, reference %d", i, len(pg), len(pr))
		}
		for k := range pg {
			if bits(pg[k].SendSec) != bits(pr[k].SendSec) || bits(pg[k].RecvSec) != bits(pr[k].RecvSec) ||
				pg[k].Bytes != pr[k].Bytes {
				t.Fatalf("download %d packet %d: %+v, reference %+v", i, k, pg[k], pr[k])
			}
		}
		if got.Stats() != ref.stats {
			t.Fatalf("download %d: stats %+v, reference %+v", i, got.Stats(), ref.stats)
		}
		l := got.link
		if bits(l.now) != bits(ref.link.now) || bits(l.queuedBytes) != bits(ref.link.queuedBytes) || l.drops != ref.link.drops {
			t.Fatalf("download %d: link %v, reference now=%g queued=%g drops=%d",
				i, l, ref.link.now, ref.link.queuedBytes, ref.link.drops)
		}
		if eg != nil {
			return
		}
		tWall += dg + tc.gapSec
	}
}

// TestSessionNetDownloadMatchesReference pins the packet kernel — the
// first-send cursor with a retransmission-only heap, and the link's
// schedule cursor — to the all-packets-in-one-heap Download over cold
// binary-search lookups, bit for bit.
func TestSessionNetDownloadMatchesReference(t *testing.T) {
	var cases []downloadCase
	for _, name := range ProfileNames() {
		for _, paced := range []bool{false, true} {
			cases = append(cases, downloadCase{spec: name, paced: paced, sizeBits: 4e6, gapSec: 0.5, downloads: 40})
		}
	}
	cases = append(cases,
		// Retransmissions interleave with first sends.
		downloadCase{spec: "bufferbloat,loss=0.05", paced: true, sizeBits: 4e6, gapSec: 0.5, downloads: 40},
		downloadCase{spec: "suddendrop,loss=0.05", sizeBits: 4e6, gapSec: 0.5, downloads: 40},
		downloadCase{spec: "crossflow,loss=0.05", paced: true, sizeBits: 3e6, gapSec: 0.2, downloads: 40},
		// A 16 KiB queue: droptail fires on bursts.
		downloadCase{spec: "stable,queue=16", sizeBits: 4e6, gapSec: 0.5, downloads: 40},
		downloadCase{spec: "suddendrop,queue=16", paced: true, sizeBits: 4e6, gapSec: 0.5, downloads: 40},
		downloadCase{spec: "crossflow,queue=16,loss=0.02", sizeBits: 2e6, gapSec: 0.5, downloads: 40},
		// Sessions several times longer than RepeatSec, so the schedule
		// wraps, on an awkward period and far from the origin.
		downloadCase{spec: "suddendrop", paced: true, sizeBits: 4e6, gapSec: 4, downloads: 40},
		downloadCase{spec: "bufferbloat,repeat=26.3", sizeBits: 2e6, gapSec: 2.9, downloads: 40},
		downloadCase{spec: "crossflow,repeat=30.7,loss=0.02", paced: true, startSec: 1e4 + 0.1, sizeBits: 2e6, gapSec: 3.3, downloads: 40},
		downloadCase{spec: "suddendrop,repeat=45.1,queue=32", startSec: 7 * 45.1, sizeBits: 4e6, gapSec: 1.7, downloads: 40},
		downloadCase{spec: "stepwrap", prof: stepWrapProfile(), sizeBits: 2e6, gapSec: 0.9, downloads: 40},
		downloadCase{spec: "stepwrap", prof: stepWrapProfile(), paced: true, startSec: 5 * 13.7, sizeBits: 1e6, gapSec: 1.3, downloads: 40},
	)
	for _, tc := range cases {
		mode := "burst"
		if tc.paced {
			mode = "paced"
		}
		t.Run(fmt.Sprintf("%s/%s/start=%g", tc.spec, mode, tc.startSec), func(t *testing.T) {
			checkDownloadsMatchReference(t, tc, 7)
		})
	}
}

// FuzzSessionNetDownload drives the same differential over fuzzed profile
// specs, seeds, sizes, cadences and start times.
func FuzzSessionNetDownload(f *testing.F) {
	f.Add("bufferbloat", int64(1), true, uint32(4e6), uint16(500), 0.0)
	f.Add("suddendrop,loss=0.05", int64(2), false, uint32(3e6), uint16(2000), 55.0)
	f.Add("stable,queue=16", int64(3), false, uint32(4e6), uint16(100), 0.0)
	f.Add("crossflow,repeat=30.7", int64(4), true, uint32(2e6), uint16(3300), 1e4)
	f.Add("ideal", int64(5), true, uint32(1e5), uint16(0), 1.5)
	f.Fuzz(func(t *testing.T, spec string, seed int64, paced bool, sizeBits uint32, gapMs uint16, startSec float64) {
		if math.IsNaN(startSec) || math.IsInf(startSec, 0) || startSec < 0 || startSec > 1e7 {
			return
		}
		if _, err := ParseProfile(spec); err != nil {
			return
		}
		// Bound the packet count per download so one input stays cheap.
		size := float64(1 + sizeBits%(2<<20))
		checkDownloadsMatchReference(t, downloadCase{
			spec: spec, paced: paced, startSec: startSec,
			sizeBits: size, gapSec: float64(gapMs) / 1000, downloads: 6,
		}, seed)
	})
}
