package experiments

import (
	"fmt"

	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/parallel"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/sim"
)

// AblationRow is one configuration of an ablation sweep with its session
// outcomes averaged over the evaluation users.
type AblationRow struct {
	// Sweep and Setting identify the knob and its value.
	Sweep, Setting string
	// EnergyPerSegment is the mean Eq. 1 energy per segment (mJ).
	EnergyPerSegment float64
	// QoE is the mean session QoE.
	QoE float64
	// Stalls is the mean stall count per session.
	Stalls float64
	// MeanFrameRate is the average chosen frame rate.
	MeanFrameRate float64
}

// AblationsResult holds the design-choice sweeps of DESIGN.md §5 evaluated
// on one video.
type AblationsResult struct {
	VideoID int
	Rows    []AblationRow
}

// Ablations sweeps the controller's design knobs — ε tolerance, MPC horizon,
// buffer threshold β, bandwidth-estimator family, and viewport-predictor
// family — on video 8 under trace 2, quantifying each choice the paper
// fixes.
func Ablations(scale Scale) (*AblationsResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	setup, err := setupVideo(8, scale)
	if err != nil {
		return nil, err
	}
	_, trace2, err := standardTraces(scale)
	if err != nil {
		return nil, err
	}

	// One setting per (sweep, value) in row order, then one session job
	// per (setting, user), flattened onto the pool as in RunComparison.
	type setting struct {
		sweep, name string
		cfg         sim.Config
	}
	base, err := sim.DefaultConfig(sim.SchemeOurs, power.Pixel3)
	if err != nil {
		return nil, err
	}
	var settings []setting
	add := func(sweep, name string, mutate func(*sim.Config)) {
		cfg := base
		mutate(&cfg)
		settings = append(settings, setting{sweep: sweep, name: name, cfg: cfg})
	}
	for _, eps := range []float64{0.0, 0.05, 0.15} {
		add("epsilon", fmt.Sprintf("%.0f%%", 100*eps), func(c *sim.Config) { c.Epsilon = eps })
	}
	for _, h := range []int{1, 3, 5, 8} {
		add("horizon", fmt.Sprintf("H=%d", h), func(c *sim.Config) { c.Horizon = h })
	}
	for _, beta := range []float64{2, 3, 5} {
		add("buffer", fmt.Sprintf("%.0fs", beta), func(c *sim.Config) { c.BufferCapSec = beta })
	}
	for _, kind := range []predict.EstimatorKind{
		predict.EstimatorHarmonic, predict.EstimatorLastSample,
		predict.EstimatorEWMA, predict.EstimatorMovingAverage,
	} {
		add("estimator", kind.String(), func(c *sim.Config) { c.Estimator = kind })
	}
	for _, kind := range []predict.ViewportKind{
		predict.ViewportRidge, predict.ViewportOLS, predict.ViewportStatic,
	} {
		add("viewport", kind.String(), func(c *sim.Config) { c.Viewport.Kind = kind })
	}
	// The objective swap: the paper's energy-minimizing MPC against the
	// QoE-maximizing MPC it descends from [24].
	add("controller", "energy-mpc", func(*sim.Config) {})
	add("controller", "qoe-mpc", func(c *sim.Config) { c.UseQoEMPC = true })

	// Each session keeps only its contribution to the row: the setting's
	// AblationRow fields, before averaging.
	users := len(setup.eval)
	sessions := make([]AblationRow, len(settings)*users)
	if err := parallel.ForEach(len(sessions), maxWorkers(), func(i int) error {
		st := &settings[i/users]
		r, err := runSession(setup, setup.eval[i%users], trace2, st.cfg)
		if err != nil {
			return fmt.Errorf("experiments: ablation %s=%s: %w", st.sweep, st.name, err)
		}
		sessions[i] = AblationRow{
			EnergyPerSegment: r.Energy.Total() / float64(r.Segments),
			QoE:              r.QoE.MeanQ,
			Stalls:           float64(r.QoE.Stalls),
			MeanFrameRate:    r.MeanFrameRate,
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Average each setting over its users in user order, so every sum sees
	// the same float sequence however the pool ran them.
	res := &AblationsResult{VideoID: 8}
	n := float64(users)
	for si, st := range settings {
		row := AblationRow{Sweep: st.sweep, Setting: st.name}
		for _, s := range sessions[si*users : (si+1)*users] {
			row.EnergyPerSegment += s.EnergyPerSegment
			row.QoE += s.QoE
			row.Stalls += s.Stalls
			row.MeanFrameRate += s.MeanFrameRate
		}
		row.EnergyPerSegment /= n
		row.QoE /= n
		row.Stalls /= n
		row.MeanFrameRate /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runSession is a seam for Ablations so it shares the videoSetup plumbing.
func runSession(setup *videoSetup, user *headtrace.Trace, net *lte.Trace, cfg sim.Config) (*sim.Result, error) {
	return sim.Run(setup.catalog, user, net, cfg)
}

// Render formats the ablation sweeps.
func (r *AblationsResult) Render() Table {
	t := Table{
		Title:   fmt.Sprintf("Ablations (video %d, trace 2, Ours): controller design-knob sweeps", r.VideoID),
		Columns: []string{"Sweep", "Setting", "Energy (mJ/seg)", "QoE", "Stalls", "Mean fps"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Sweep, row.Setting,
			fmt.Sprintf("%.0f", row.EnergyPerSegment),
			fmt.Sprintf("%.1f", row.QoE),
			fmt.Sprintf("%.1f", row.Stalls),
			fmt.Sprintf("%.1f", row.MeanFrameRate),
		})
	}
	return t
}
