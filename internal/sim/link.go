package sim

import (
	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/predict"
)

// The two links the engine runs over; a renamed method would otherwise
// silently drop a trace's validation or a path's packet feed.
var (
	_ validatingLink = (*lte.Trace)(nil)
	_ PacketLink     = (*netem.SessionNet)(nil)
)

// Link is the network a session downloads over. The controller sees the
// network only through a download time and a rate (Section IV-C), so this
// is all the session engine asks of it. *lte.Trace (segment-level
// integration of a bandwidth trace) and *netem.SessionNet (packet-level
// emulation) both implement it.
type Link interface {
	// Download returns the seconds needed to transfer bits when the
	// transfer starts at startSec on the session clock.
	Download(bits, startSec float64) (float64, error)
	// RateAt returns the link's rate in bits/s at session time t: the
	// estimator's startup probe, and the throughput charged for a transfer
	// that takes no time.
	RateAt(t float64) float64
}

// PacketLink is a Link with a packet feed: the per-packet timing of its
// last download, for delay-aware estimators.
type PacketLink interface {
	Link
	Packets() []netem.PacketSample
}

// validatingLink is a Link that can check its own data. Such links are
// validated once when first bound to a session, never per download.
type validatingLink interface {
	Link
	Validate() error
}

// ObservePackets feeds the packet timing of link's last download to bw,
// when link has a packet feed and bw consumes one (predict.PacketObserver).
// Otherwise it does nothing. Call it after the download and before the
// segment-level Observe, mirroring arrival order.
func ObservePackets(link Link, bw predict.Estimator) {
	po, ok := bw.(predict.PacketObserver)
	if !ok {
		return
	}
	pl, ok := link.(PacketLink)
	if !ok {
		return
	}
	for _, ps := range pl.Packets() {
		po.ObservePacket(ps.SendSec, ps.RecvSec, ps.Bytes)
	}
}
