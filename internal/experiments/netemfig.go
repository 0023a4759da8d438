package experiments

import (
	"fmt"

	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/parallel"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/sim"
	"ptile360/internal/stats"
)

// netemPaceFactor is the paced-sender factor used on the packet-level model:
// the server transmits at 1.25x the segment's media rate instead of dumping
// the whole segment as one burst. Without pacing a burst dump builds a
// standing queue out of its own serialization delay, and the delay-gradient
// detector would (correctly) latch overuse on every segment — self-inflicted
// signal, not network congestion. Tight pacing also blinds throughput-based
// estimators: a download served at 1.25x the media rate reveals only the
// rate the server sent, never the link's headroom, so the harmonic mean can
// neither climb after a cut nor see a sag coming — exactly the regime where
// reading congestion from packet timing pays.
const netemPaceFactor = 1.25

// netemProfileOverride, when non-empty, restricts NetemFig to a single
// parsed profile spec (see SetNetemProfile).
var netemProfileOverride string

// SetNetemProfile restricts the netem experiment to one profile spec of the
// ParseProfile form "name[,key=val,...]"; the empty string restores the
// default three-profile sweep. It returns an error if the spec does not
// parse. Not safe to call concurrently with NetemFig.
func SetNetemProfile(spec string) error {
	if spec != "" {
		if _, err := netem.ParseProfile(spec); err != nil {
			return err
		}
	}
	netemProfileOverride = spec
	return nil
}

// netemProfiles returns the profile specs the experiment sweeps.
func netemProfiles() []string {
	if netemProfileOverride != "" {
		return []string{netemProfileOverride}
	}
	return []string{"bufferbloat", "suddendrop", "crossflow"}
}

// NetemRow aggregates one (profile, bandwidth model, estimator) cell of the
// robustness figure over the evaluation users.
type NetemRow struct {
	// Profile is the netem profile name.
	Profile string
	// Model is the bandwidth model: "segment" (the fluid lte.Trace
	// abstraction, sampled from the same schedule) or "packet" (the full
	// packet-level SessionNet path).
	Model string
	// Estimator is the bandwidth-estimator family driving MPC.
	Estimator string
	// MeanQoE is the mean per-segment QoE (Eq. 2 q term) across users.
	MeanQoE float64
	// EnergyJ is the mean session energy in joules across users.
	EnergyJ float64
	// StallSec is the mean per-session stall time in seconds.
	StallSec float64
	// Stalls is the total stall count across users.
	Stalls int
	// Packets, Retransmits and DropsTail aggregate the packet accounting
	// across users (zero on the segment model, which has no packets).
	Packets     int
	Retransmits int
	DropsTail   int
}

// NetemResult holds the packet-level vs segment-level robustness sweep.
type NetemResult struct {
	// Video is the evaluated Table III video.
	Video int
	// Users is the number of evaluation users behind each row.
	Users int
	// Rows holds one aggregate per (profile, model, estimator).
	Rows []NetemRow
}

// NetemFig compares MPC outcomes under the segment-level fluid bandwidth
// model against the packet-level emulator, for the harmonic-mean and
// delay-gradient estimators, across the adversarial link profiles. The
// segment model samples the same capacity schedule at 1 s granularity, so
// any divergence between the two models is purely packet dynamics: queueing
// delay, loss, retransmission, and the timing signal the delay-gradient
// estimator feeds on.
func NetemFig(videoID int, scale Scale) (*NetemResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	setup, err := setupVideo(videoID, scale)
	if err != nil {
		return nil, err
	}
	res := &NetemResult{Video: videoID, Users: len(setup.eval)}

	// One cell per (profile, estimator, model) in row order, then one
	// session job per (cell, user), flattened so a single bounded pool
	// saturates the machine, as in RunComparison.
	cfg, err := sim.DefaultConfig(sim.SchemeOurs, power.Pixel3)
	if err != nil {
		return nil, fmt.Errorf("experiments: netem: %w", err)
	}
	var cells []netemCell
	for _, spec := range netemProfiles() {
		prof, err := netem.ParseProfile(spec)
		if err != nil {
			return nil, err
		}
		// The segment-level twin of the profile: the capacity schedule
		// (minus cross traffic) sampled at the segment cadence. One trace
		// serves every user — the fluid model has no per-session state.
		segTrace, err := netemSegmentTrace(prof, scale.TraceSamples)
		if err != nil {
			return nil, err
		}
		for _, kind := range []predict.EstimatorKind{predict.EstimatorHarmonic, predict.EstimatorDelayGradient} {
			for _, model := range []string{"segment", "packet"} {
				c := netemCell{prof: prof, segTrace: segTrace, kind: kind, model: model, cfg: cfg}
				c.cfg.Estimator = kind
				cells = append(cells, c)
			}
		}
	}
	users := len(setup.eval)
	sessions := make([]netemSession, len(cells)*users)
	if err := parallel.ForEach(len(sessions), maxWorkers(), func(i int) error {
		c := &cells[i/users]
		s, err := c.run(setup, i%users, scale)
		if err != nil {
			return c.errorf(err)
		}
		sessions[i] = s
		return nil
	}); err != nil {
		return nil, err
	}
	for ci := range cells {
		res.Rows = append(res.Rows, cells[ci].aggregate(sessions[ci*users:(ci+1)*users]))
	}
	return res, nil
}

// netemSegmentTrace samples the profile's deliverable rate at 1 s intervals
// into an lte.Trace.
func netemSegmentTrace(prof *netem.Profile, samples int) (*lte.Trace, error) {
	pn, err := netem.NewSessionNet(netem.SessionConfig{Profile: prof})
	if err != nil {
		return nil, err
	}
	tr := &lte.Trace{IntervalSec: 1, Bps: make([]float64, samples)}
	for i := range tr.Bps {
		tr.Bps[i] = pn.RateAt(float64(i))
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// netemCell is one (profile, estimator, model) configuration of the sweep.
type netemCell struct {
	prof     *netem.Profile
	segTrace *lte.Trace
	kind     predict.EstimatorKind
	model    string
	cfg      sim.Config
}

// netemSession is what one user's session contributes to its cell's row.
type netemSession struct {
	qoe, energyJ, stallSec float64
	stalls                 int
	net                    netem.SessionStats
}

func (c *netemCell) errorf(err error) error {
	return fmt.Errorf("experiments: netem %s/%s/%s: %w", c.prof.Name, c.model, c.kind, err)
}

// run streams evaluation user u through the cell's configuration: over the
// shared segment trace, or over a fresh packet-level path seeded per user.
func (c *netemCell) run(setup *videoSetup, u int, scale Scale) (netemSession, error) {
	var link sim.Link = c.segTrace
	var pn *netem.SessionNet
	if c.model == "packet" {
		var err error
		pn, err = netem.NewSessionNet(netem.SessionConfig{
			Profile:    c.prof,
			Seed:       scale.Seed*1000 + int64(u),
			SegmentSec: c.cfg.SegmentSec,
			PaceFactor: netemPaceFactor,
		})
		if err != nil {
			return netemSession{}, err
		}
		link = pn
	}
	r, err := sim.Run(setup.catalog, setup.eval[u], link, c.cfg)
	if err != nil {
		return netemSession{}, err
	}
	out := netemSession{qoe: r.QoE.MeanQ, energyJ: r.Energy.Total(), stallSec: r.QoE.StallSec, stalls: r.QoE.Stalls}
	if pn != nil {
		out.net = pn.Stats()
	}
	return out, nil
}

// aggregate folds the cell's sessions into its row in user order, so every
// sum and mean sees the same float sequence however the pool ran them.
func (c *netemCell) aggregate(sessions []netemSession) NetemRow {
	row := NetemRow{Profile: c.prof.Name, Model: c.model, Estimator: c.kind.String()}
	qoes := make([]float64, len(sessions))
	energies := make([]float64, len(sessions))
	stallSecs := make([]float64, len(sessions))
	for u, s := range sessions {
		qoes[u], energies[u], stallSecs[u] = s.qoe, s.energyJ, s.stallSec
		row.Stalls += s.stalls
		row.Packets += s.net.Packets
		row.Retransmits += s.net.Retransmits
		row.DropsTail += s.net.DropsTail
	}
	row.MeanQoE = stats.Mean(qoes)
	row.EnergyJ = stats.Mean(energies)
	row.StallSec = stats.Mean(stallSecs)
	return row
}

// Render formats the sweep as a printable table.
func (r *NetemResult) Render() Table {
	t := Table{
		Title: fmt.Sprintf("Netem: MPC under segment-level vs packet-level bandwidth models (video %d, %d eval users)",
			r.Video, r.Users),
		Columns: []string{"Profile", "Model", "Estimator", "QoE", "Energy (J)", "Stall (s)", "Stalls", "Packets", "Rexmit", "Drops"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Profile, row.Model, row.Estimator,
			fmt.Sprintf("%.3f", row.MeanQoE),
			fmt.Sprintf("%.1f", row.EnergyJ),
			fmt.Sprintf("%.2f", row.StallSec),
			fmt.Sprintf("%d", row.Stalls),
			fmt.Sprintf("%d", row.Packets),
			fmt.Sprintf("%d", row.Retransmits),
			fmt.Sprintf("%d", row.DropsTail),
		})
	}
	return t
}
