package sim

import (
	"ptile360/internal/abr"
	"ptile360/internal/geom"
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

// Fetcher is a Link that fetches a segment itself and may fail over: the
// HTTP client's link retries failed attempts, steps down a degradation
// ladder, and can give a segment up. The engine hands a Fetcher the whole
// request instead of calling Download, and accounts what it reports.
type Fetcher interface {
	Link
	Fetch(req FetchRequest) (FetchOutcome, error)
}

// FetchRequest is one segment request as the controller issued it.
type FetchRequest struct {
	// Segment is the segment index.
	Segment int
	// StartSec is the session clock when the request is issued.
	StartSec float64
	// Options are the offered versions; read-only, valid during the call.
	Options []abr.OptionMeta
	// Chosen is the controller's choice among Options.
	Chosen abr.OptionMeta
	// Ptile is the serving Ptile's index in the catalogue's Ptiles[Segment],
	// or -1 for a conventional-tile fallback.
	Ptile int
	// Center is the predicted viewport center the segment is fetched for.
	Center geom.Point
}

// FetchOutcome is what a fetch delivered. A plain Link always delivers
// Chosen at rung 0 with no waste, no retry and no abandon.
type FetchOutcome struct {
	// Delivered is the version served (zero when Abandoned).
	Delivered abr.OptionMeta
	// Rung counts degradation steps below Chosen; 0 is Chosen itself.
	Rung int
	// DownloadSec is the successful transfer's duration.
	DownloadSec float64
	// WastedSec is the time burned on failed attempts before it.
	WastedSec float64
	// Retries counts the failed attempts.
	Retries int
	// Abandoned reports that every rung failed: playback skips the segment.
	Abandoned bool
}

// validatingLink is a Link that can check its own data. Such links are
// validated once when first bound to a session, never per download.
type validatingLink interface {
	Link
	Validate() error
}

// observePackets feeds the packet timing of link's last download to bw,
// when link has a packet feed and bw consumes one (predict.PacketObserver).
// Otherwise it does nothing. Call it after the download and before the
// segment-level Observe, mirroring arrival order.
func observePackets(link Link, bw predict.Estimator) {
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
