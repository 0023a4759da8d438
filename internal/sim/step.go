package sim

import (
	"fmt"
	"math"

	"ptile360/internal/abr"
	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/qoe"
)

// This file is the resumable form of the session loop. Run streams a whole
// video in one blocking call; fleet-scale schedulers instead advance
// sessions one segment at a time from a virtual-clock event queue. The
// split is:
//
//   - Stepper carries everything shared by sessions of one
//     (catalogue, config) pair — power model, controllers, plan tables, FoV
//     LUT — plus the recycled planning scratch. It is the expensive part
//     (kilobytes of DP and plan buffers) and exists once per worker, not
//     once per session.
//   - State is the compact persistent state of one viewer: clocks, buffer,
//     bandwidth-estimator window, previous-choice memory, and the running
//     accounting sums. It is a few hundred bytes, so a million concurrent
//     sessions fit in one process.
//
// Run is itself implemented as NewStepper + NewState + a Step loop, so the
// blocking path and the event-driven path execute the same code; the
// fleet package's differential tests pin the two bit-identical.

// Stepper advances resumable sessions of one (catalogue, config) pair. It
// owns mutable planning scratch, so it must not be shared by concurrent
// goroutines — give each worker its own.
type Stepper struct {
	s       session
	estKind predict.EstimatorKind
	// xyCache shares the unwrapped head-trace series across sessions of the
	// same viewer trace (they are read-only), so a fleet replaying a trace
	// pool pays the XYSeries allocation once per trace, not per session.
	xyCache map[*headtrace.Trace]xySeries
	// linkSeen remembers links that already passed Validate, so a fleet
	// joining many sessions onto a shared trace scans it once, not once per
	// join. Traces are immutable by contract after first use.
	linkSeen map[Link]struct{}
}

type xySeries struct{ xs, ys []float64 }

// State is the compact persistent state of one resumable session. Create
// with Stepper.NewState, advance with Stepper.Step, and settle the
// accounting with Stepper.Finish. A State is bound to the stepper's
// (catalogue, config); any stepper built from the same pair may advance it.
type State struct {
	user *headtrace.Trace
	link Link
	bw   predict.Estimator
	// bwStore is the in-struct home of the default harmonic estimator, so a
	// bulk-allocated State (fleet slabs) costs no separate estimator
	// allocation; bw points at it then. Because bwStore's window may alias
	// its own inline array, a State must not be copied by value after
	// InitState.
	bwStore predict.Bandwidth
	// xs, ys alias the stepper's shared per-trace series (read-only).
	xs, ys []float64

	nextSeg    int
	tWall      float64
	buffer     float64
	prevQ0     float64
	hasPrevQ0  bool
	prevChoice abr.Option
	hasPrev    bool

	// Running accounting, folded exactly as Run's result loop would.
	energy        EnergyBreakdown
	bits          float64
	qualitySum    float64
	frameRateSum  float64
	segments      int
	ptileSegments int
	viewportHits  int
	emergencies   int
	acc           qoe.Accumulator
	perSegment    []SegmentTrace
}

// Segment returns the index of the next segment Step would fetch.
func (st *State) Segment() int { return st.nextSeg }

// WallSec returns the session-local wall clock (seconds since the session
// started) after the last completed download.
func (st *State) WallSec() float64 { return st.tWall }

// BufferSec returns the current playback buffer level in seconds.
func (st *State) BufferSec() float64 { return st.buffer }

// Segments returns the number of segments streamed so far.
func (st *State) Segments() int { return st.segments }

// PerSegment returns the per-segment records so far (Config.RecordSegments;
// nil otherwise). The slice is the state's own; do not modify it.
func (st *State) PerSegment() []SegmentTrace { return st.perSegment }

// EstimateBps returns the session's current bandwidth estimate in bits per
// second, or 0 before the estimator has warmed up.
func (st *State) EstimateBps() float64 {
	if st.bw == nil || !st.bw.Ready() {
		return 0
	}
	est, err := st.bw.Estimate()
	if err != nil {
		return 0
	}
	return est
}

// StepInfo reports one Step: the timing a scheduler needs to place the
// download-completion event on its virtual clock.
type StepInfo struct {
	// Segment is the segment index this step fetched.
	Segment int
	// WaitSec is the pre-request pacing wait (buffer above β).
	WaitSec float64
	// DownloadSec is the download duration over the session's link.
	DownloadSec float64
	// StallSec is the rebuffering charged to this segment.
	StallSec float64
	// WallSec is the session-local wall clock when the download completed.
	WallSec float64
	// BufferSec is the buffer level after the segment was appended.
	BufferSec float64
	// Done reports that no segments remain: the session is complete and
	// ready for Finish.
	Done bool
}

// NewStepper validates the configuration against the catalogue and builds
// the shared session runtime.
func NewStepper(cat *Catalog, cfg Config) (*Stepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cat == nil || len(cat.Content) == 0 {
		return nil, fmt.Errorf("sim: empty catalogue")
	}
	if cat.SegmentSec != cfg.SegmentSec {
		return nil, fmt.Errorf("sim: catalogue segment duration %g != config %g", cat.SegmentSec, cfg.SegmentSec)
	}
	pm, err := power.TableI(cfg.Phone)
	if err != nil {
		return nil, err
	}
	mpcCfg := abr.DefaultConfig(pm.Tx)
	mpcCfg.Horizon = cfg.Horizon
	mpcCfg.SegmentSec = cfg.SegmentSec
	mpcCfg.BufferCapSec = cfg.BufferCapSec
	mpcCfg.Epsilon = cfg.Epsilon
	mpc, err := abr.NewEnergyMPC(mpcCfg)
	if err != nil {
		return nil, err
	}
	qoeMPC, err := abr.NewQoEMPC(mpcCfg, cfg.Weights.Variation)
	if err != nil {
		return nil, err
	}
	rateCtl, err := abr.NewRateBased(cfg.RateSafety)
	if err != nil {
		return nil, err
	}
	estKind := cfg.Estimator
	if estKind == 0 {
		estKind = predict.EstimatorHarmonic
	}
	// Validate the estimator kind once here so a bad configuration fails at
	// stepper construction, not at the first NewState.
	if _, err := predict.NewEstimator(estKind, cfg.BandwidthWindow); err != nil {
		return nil, err
	}

	// Fetch the catalogue's shared precomputed size tables; when disabled
	// (determinism tests) the planners fall back to computing every size
	// directly, which is the bit-identical serial reference path.
	var tab *planTables
	if !disablePlanTables {
		tab, err = cat.tablesFor(&cfg)
		if err != nil {
			return nil, err
		}
	}

	st := &Stepper{
		s: session{
			cfg: cfg, cat: cat,
			pm: pm, mpc: mpc, qoeMPC: qoeMPC, rate: rateCtl,
			tab: tab, fm: cfg.Encoder.FrameRate,
		},
		estKind:  estKind,
		xyCache:  make(map[*headtrace.Trace]xySeries),
		linkSeen: make(map[Link]struct{}),
	}
	// Shared FoV coverage LUT (nil on grids too large for a TileSet — the
	// planners then keep the direct FoVTiles paths) and the reusable
	// viewport predictor. A config the predictor rejects is one Viewport
	// would reject on every call, so predictViewport's trace fallback applies
	// either way.
	st.s.lut = geom.FoVLUTFor(cfg.Grid, cfg.FoVDeg, cfg.FoVDeg)
	if vp, vpErr := predict.NewViewportPredictor(cfg.Viewport); vpErr == nil {
		st.s.vp = vp
	}
	// One recycled plan per horizon slot; preallocated so held plan pointers
	// are never invalidated by growth.
	st.s.planBufs = make([]segmentPlan, cfg.Horizon+1)
	return st, nil
}

// Segments returns the number of segments in the stepper's catalogue.
func (st *Stepper) Segments() int { return len(st.s.cat.Content) }

// Config returns the stepper's session configuration.
func (st *Stepper) Config() Config { return st.s.cfg }

// xySeriesFor returns the shared unwrapped head series for a viewer trace.
func (st *Stepper) xySeriesFor(user *headtrace.Trace) xySeries {
	if xy, ok := st.xyCache[user]; ok {
		return xy
	}
	xs, ys := user.XYSeries()
	xy := xySeries{xs: xs, ys: ys}
	st.xyCache[user] = xy
	return xy
}

// NewState binds a viewer and a link into a fresh session state, seeding
// the bandwidth estimator with the link's initial probe exactly as Run does.
// A link with mutable state (*netem.SessionNet) must not be shared between
// states.
func (st *Stepper) NewState(user *headtrace.Trace, link Link) (*State, error) {
	state := new(State)
	if err := st.InitState(state, user, link); err != nil {
		return nil, err
	}
	return state, nil
}

// InitState initializes a caller-allocated State in place — the bulk form of
// NewState for engines that slab-allocate session state. state's previous
// contents are discarded. With the default harmonic estimator and a window
// that fits its inline storage, initialization performs no heap allocation
// beyond the once-per-trace series cache.
func (st *Stepper) InitState(state *State, user *headtrace.Trace, link Link) error {
	if user == nil || len(user.Samples) == 0 {
		return fmt.Errorf("sim: empty user trace")
	}
	if link == nil {
		return fmt.Errorf("sim: nil link")
	}
	if vl, ok := link.(validatingLink); ok {
		if _, seen := st.linkSeen[link]; !seen {
			if err := vl.Validate(); err != nil {
				return err
			}
			st.linkSeen[link] = struct{}{}
		}
	}
	*state = State{user: user, link: link}
	if st.estKind == predict.EstimatorHarmonic {
		if err := state.bwStore.Init(st.s.cfg.BandwidthWindow); err != nil {
			return err
		}
		state.bw = &state.bwStore
	} else {
		bw, err := predict.NewEstimator(st.estKind, st.s.cfg.BandwidthWindow)
		if err != nil {
			return err
		}
		state.bw = bw
	}
	xy := st.xySeriesFor(user)
	state.xs, state.ys = xy.xs, xy.ys
	// Seed the bandwidth estimator with an initial probe (the paper's
	// startup phase downloads segment metadata).
	return state.bw.Observe(link.RateAt(0))
}

// Step advances the session by one segment: the wait rule, the controller
// decision, the download, and the energy/QoE accounting — one iteration of
// Run's loop. It is plan followed by apply; StepBatch runs the same two
// halves, sharing one plan across decision-identical sessions.
func (st *Stepper) Step(state *State) (StepInfo, error) {
	var d stepDelta
	return st.step(state, &d)
}

// step is Step with the plan written to d, so a batch leader's delta stays
// behind for its followers.
func (st *Stepper) step(state *State, d *stepDelta) (StepInfo, error) {
	if state.nextSeg >= len(st.s.cat.Content) {
		return StepInfo{}, fmt.Errorf("sim: session already streamed all %d segments", len(st.s.cat.Content))
	}
	if err := st.s.plan(state, d); err != nil {
		return StepInfo{Segment: state.nextSeg}, err
	}
	return st.s.apply(state, d)
}

// stepDelta is everything one step computes before it mutates the session:
// the output of plan and the input of apply. Over a trace link every value
// in it is a deterministic function of the session's decision-relevant
// state, which is what lets a batch share one leader's delta with
// decision-identical followers (batch.go).
type stepDelta struct {
	waitSec      float64
	chosen       abr.OptionMeta
	emergency    bool
	downloadSec  float64
	measuredRate float64
	energy       power.SegmentEnergy
	q0           float64
	hit          bool
	fromPtile    bool
	bd           qoe.Breakdown
	// The fetch outcome beyond the download time: the seconds burned on
	// failed attempts, their count, a degraded or abandoned segment, and
	// the chosen version's QoE loss (RecordSegments only).
	wastedSec float64
	retries   int
	degraded  bool
	abandoned bool
	qoeLoss   float64
}

// plan computes segment k = state.nextSeg's step into d without mutating
// state: the wait rule, the controller decision, the download over the
// link, and the energy/QoE evaluation. The link's own state is the one
// exception — a packet-level link advances its queue — which is why only
// pure trace links are batched.
func (s *session) plan(state *State, d *stepDelta) error {
	k := state.nextSeg

	// Wait rule: Δt = max(B − β, 0) before requesting segment k. tReq and
	// bufferAtRequest are the clock and buffer apply will reach after the
	// wait.
	tReq, bufferAtRequest := state.tWall, state.buffer
	if dt := bufferAtRequest - s.cfg.BufferCapSec; dt > 0 {
		d.waitSec = dt
		tReq += dt
		bufferAtRequest -= dt
	}

	rateEst, err := state.bw.Estimate()
	if err != nil {
		return err
	}

	predCenter := s.predictViewport(state, k, bufferAtRequest)
	speedEst := s.recentSwitchingSpeed(state.user, k)

	seg, err := s.segmentPlan(k, 0, predCenter, speedEst)
	if err != nil {
		return err
	}

	// Only Ours runs the energy-minimizing MPC (Section IV-C). The Ptile
	// baseline is "similar to the Ctile approach" (Section V-A): it
	// requests the best quality the network affords, merely encoded as
	// one large tile.
	var decision abr.Decision
	switch s.cfg.Scheme {
	case SchemeOurs:
		horizon, err := s.horizonPlans(k, predCenter, speedEst, seg)
		if err != nil {
			return err
		}
		if s.cfg.UseQoEMPC {
			prevQ := state.prevQ0
			if !state.hasPrevQ0 {
				prevQ = bestQuality(seg.options)
			}
			decision, err = s.qoeMPC.Decide(bufferAtRequest, rateEst, prevQ, horizon)
		} else {
			decision, err = s.mpc.Decide(bufferAtRequest, rateEst, horizon)
		}
		if err != nil {
			return err
		}
	default:
		decision, err = s.rate.Decide(bufferAtRequest, rateEst, seg.options)
		if err != nil {
			return err
		}
	}
	d.emergency = decision.Emergency
	chosen := decision.Chosen
	// Version hysteresis (Ours only): Eq. 2 charges |ΔQ| between
	// consecutive segments, which the energy DP does not model. When
	// last segment's version is still feasible and within a small energy
	// margin of the fresh optimum, keep it to avoid quality flapping.
	if s.cfg.VersionHysteresis && s.cfg.Scheme == SchemeOurs && !s.cfg.UseQoEMPC &&
		state.hasPrev && !decision.Emergency {
		chosen = s.applyHysteresis(seg.options, chosen, state.prevChoice, rateEst, bufferAtRequest)
	}

	// Fetch over the link; a trace link was validated when the state was
	// bound (InitState). A Fetcher may deliver a cheaper rung, burn time on
	// failed attempts, or abandon the segment.
	var out FetchOutcome
	if f, ok := state.link.(Fetcher); ok {
		out, err = f.Fetch(FetchRequest{
			Segment: k, StartSec: tReq, Options: seg.options, Chosen: chosen,
			Ptile: seg.ptileIdx, Center: predCenter,
		})
	} else {
		out.Delivered = chosen
		out.DownloadSec, err = state.link.Download(chosen.SizeBits, tReq)
	}
	if err != nil {
		return err
	}
	d.wastedSec, d.retries, d.degraded = out.WastedSec, out.Retries, out.Rung > 0
	if out.Abandoned {
		// Playback skips the segment: the deadline miss freezes the display
		// for L on top of whatever buffer the failed attempts burned.
		d.abandoned = true
		d.bd.StallSec = math.Max(out.WastedSec-bufferAtRequest, 0) + s.cfg.SegmentSec
		d.qoeLoss = 1
		return nil
	}
	chosen = out.Delivered
	d.chosen = chosen
	if s.cfg.RecordSegments {
		if best := bestQuality(seg.options); best > 0 {
			d.qoeLoss = (best - chosen.PerceivedQuality) / best
		}
	}
	dl := out.DownloadSec
	d.downloadSec = dl
	measuredRate := chosen.SizeBits / dl
	if dl <= 0 {
		measuredRate = state.link.RateAt(tReq + dl)
	}
	d.measuredRate = measuredRate

	// Energy accounting (Eq. 1). Fallback segments decode with the
	// conventional pipeline.
	decSch := s.cfg.Scheme.decodeScheme()
	if seg.fallback {
		decSch = power.Ctile
	}
	d.energy, err = s.pm.Segment(decSch, chosen.SizeBits, measuredRate, chosen.FrameRate, s.cfg.SegmentSec)
	if err != nil {
		return err
	}

	// QoE accounting: the user perceives the chosen quality only if the
	// downloaded high-quality region covers what they actually watch;
	// otherwise they see the low-quality background.
	d.q0, d.hit, err = s.perceivedQuality(state.user, k, seg, chosen)
	if err != nil {
		return err
	}
	prev := d.q0
	if state.hasPrevQ0 {
		prev = state.prevQ0
	}
	// Failed attempts drain the buffer before the delivered download
	// starts. The startup download (k = 0, empty buffer) is excluded from
	// rebuffering, as is standard in ABR evaluation.
	qoeBuffer := bufferAtRequest
	if out.WastedSec > 0 {
		qoeBuffer = math.Max(bufferAtRequest-out.WastedSec, 0)
	}
	if k == 0 {
		qoeBuffer = dl + 1
	}
	d.bd, err = qoe.Segment(qoe.SegmentInput{
		Q0: d.q0, PrevQ0: prev,
		SizeBits: chosen.SizeBits, RateBps: measuredRate,
		BufferSec: qoeBuffer,
	}, s.cfg.Weights)
	if err != nil {
		return err
	}
	if out.WastedSec > bufferAtRequest {
		d.bd.StallSec += out.WastedSec - bufferAtRequest
	}
	d.fromPtile = !seg.fallback && (s.cfg.Scheme == SchemePtile || s.cfg.Scheme == SchemeOurs)
	return nil
}

// apply performs every mutation of one step, in order: the wait, the
// choice memory, the clock, the estimator (packet feed, then the segment
// sample), the buffer, the accounting sums and the per-segment trace. It is
// the only code that advances a State, so a batch follower applying its
// leader's delta ends in exactly the state its own plan would have
// produced: the same operands in the same floating-point operations.
func (s *session) apply(state *State, d *stepDelta) (StepInfo, error) {
	k := state.nextSeg
	info := StepInfo{Segment: k, WaitSec: d.waitSec, DownloadSec: d.downloadSec, StallSec: d.bd.StallSec}
	if d.waitSec > 0 {
		state.tWall += d.waitSec
		state.buffer -= d.waitSec
	}
	if d.emergency {
		state.emergencies++
	}
	bufferAtRequest := state.buffer
	if d.wastedSec > 0 {
		state.tWall += d.wastedSec
		state.buffer = math.Max(state.buffer-d.wastedSec, 0)
	}
	// An abandoned segment plays nothing: it moves no clock beyond the
	// waste, feeds no estimator sample and leaves the choice memory alone.
	if !d.abandoned {
		state.prevChoice = d.chosen.Option
		state.hasPrev = true

		state.tWall += d.downloadSec
		observePackets(state.link, state.bw)
		if err := state.bw.Observe(d.measuredRate); err != nil {
			return info, err
		}
		state.buffer = math.Max(state.buffer-d.downloadSec, 0) + s.cfg.SegmentSec

		state.energy.Tx += d.energy.Tx
		state.energy.Decode += d.energy.Decode
		state.energy.Render += d.energy.Render

		if d.hit {
			state.viewportHits++
		}
		state.prevQ0 = d.q0
		state.hasPrevQ0 = true

		state.bits += d.chosen.SizeBits
		state.qualitySum += float64(d.chosen.Quality)
		state.frameRateSum += d.chosen.FrameRate
		if d.fromPtile {
			state.ptileSegments++
		}
	}
	state.acc.Add(d.bd)
	if s.cfg.RecordSegments {
		state.perSegment = append(state.perSegment, SegmentTrace{
			Segment:       k,
			Quality:       d.chosen.Quality,
			FrameRate:     d.chosen.FrameRate,
			SizeBits:      d.chosen.SizeBits,
			ThroughputBps: d.measuredRate,
			BufferSec:     bufferAtRequest,
			Q0:            d.q0,
			Q:             d.bd.Q,
			StallSec:      d.bd.StallSec,
			EnergyMJ:      d.energy.Total(),
			FromPtile:     d.fromPtile,
			Emergency:     d.emergency,
			Retries:       d.retries,
			Degraded:      d.degraded,
			Abandoned:     d.abandoned,
			QoELoss:       d.qoeLoss,
		})
	}
	state.segments++
	state.nextSeg = k + 1

	info.WallSec = state.tWall
	info.BufferSec = state.buffer
	info.Done = state.nextSeg >= len(s.cat.Content)
	return info, nil
}

// Finish settles the session accounting into a Result. It may be called
// before the catalogue is exhausted (a truncated session); it fails on a
// session that never streamed a segment.
func (st *Stepper) Finish(state *State) (*Result, error) {
	res := &Result{
		Scheme:         st.s.cfg.Scheme,
		Phone:          st.s.cfg.Phone,
		VideoID:        st.s.cat.Video.ID,
		UserID:         state.user.UserID,
		Segments:       state.segments,
		Energy:         state.energy,
		BitsDownloaded: state.bits,
		MeanQuality:    state.qualitySum,
		MeanFrameRate:  state.frameRateSum,
		PtileSegments:  state.ptileSegments,
		ViewportHits:   state.viewportHits,
		Emergencies:    state.emergencies,
		PerSegment:     state.perSegment,
	}
	summary, err := state.acc.Summary()
	if err != nil {
		return nil, err
	}
	res.QoE = summary
	res.MeanQuality /= float64(res.Segments)
	res.MeanFrameRate /= float64(res.Segments)
	return res, nil
}
