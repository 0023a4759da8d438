package httpstream

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"ptile360/internal/abr"
	"ptile360/internal/geom"
	"ptile360/internal/headtrace"
	"ptile360/internal/netem"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/ptile"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// ClientConfig tunes the streaming client.
type ClientConfig struct {
	// BaseURL is the server address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Phone selects the Table I power model of the controller and the
	// energy accounting.
	Phone power.Phone
	// Link optionally charges downloads to an emulated network: each
	// segment body is read from the server at local speed, then charged
	// Link.Download's transfer time for the delivered version's modelled
	// size on the session clock, and slept off once (divided by
	// TimeCompression). An *lte.Trace integrates a bandwidth trace; a
	// *netem.SessionNet emulates the packet path (packetization, queueing,
	// loss, retransmission) and feeds per-packet timing to a PacketObserver
	// estimator. Nil means unshaped: the real transfer time counts, and the
	// estimator's startup probe is the manifest fetch's goodput.
	Link sim.Link
	// Estimator selects the bandwidth-estimator family. The zero value
	// means the paper's harmonic mean over a 5-sample window. The
	// delay-gradient kind additionally consumes packet timing when Link
	// has a packet feed.
	Estimator predict.EstimatorKind
	// TimeCompression divides the shaping sleep times: 10 means the session
	// runs 10× faster than real time while preserving per-segment
	// throughput accounting. Zero means 1.
	TimeCompression float64
	// MaxSegments caps the number of segments streamed (0 = whole video).
	MaxSegments int
	// UseMPC selects the paper's controller (sim.SchemeOurs: the
	// energy-minimizing MPC over the frame-rate ladder); false streams the
	// Ptile baseline (sim.SchemePtile: rate-based at the source frame rate).
	UseMPC bool

	// RequestTimeout bounds each HTTP request (one manifest fetch or one
	// segment download attempt) via context. Zero means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Retry governs failed-request handling. The zero value means
	// DefaultRetryPolicy().
	Retry RetryPolicy
	// RetrySeed seeds the backoff jitter so resilience runs reproduce
	// exactly. Zero means seed 1.
	RetrySeed int64
	// Transport optionally replaces the HTTP transport — e.g. a
	// faultinject.Transport for chaos testing. Nil uses the default
	// transport; the healthy path is then byte-identical to a client
	// without the resilience layer, because retries and degradation only
	// engage on failure.
	Transport http.RoundTripper
	// NoDegrade disables the degradation ladder: after the retry budget of
	// the chosen rung is exhausted the session fails instead of stepping
	// down to cheaper rungs and, ultimately, abandoning the segment.
	NoDegrade bool
	// ClientID, when set, is sent as the X-Client-Id header so the
	// server's per-client rate limiter can key on the session rather than
	// the shared NAT address. It also labels telemetry records.
	ClientID string
	// Telemetry, when set, receives one record per segment (served or
	// abandoned) as the session progresses — the paper's headline series:
	// bitrate, frame rate, stall, QoE loss, and modeled energy. The
	// callback runs on the streaming goroutine; keep it fast.
	Telemetry func(TelemetryRecord)
	// Metrics, when set, receives the session's counters and per-stage
	// latency histograms (client_segments_total, client_stall_seconds_total,
	// client_qoe_loss, client_segment_stage_seconds, ...).
	Metrics *obs.Registry
	// Flight, when set, black-boxes the session: a sampled per-session ring
	// of segment events that dumps on anomaly triggers (abandon, stall
	// burst, SLO burn). Sessions the recorder does not sample pay one nil
	// check per segment.
	Flight *obs.FlightRecorder
}

// Validate reports whether the configuration is usable.
func (c ClientConfig) Validate() error {
	if c.BaseURL == "" {
		return fmt.Errorf("httpstream: empty base URL")
	}
	u, err := url.Parse(c.BaseURL)
	if err != nil {
		return fmt.Errorf("httpstream: bad base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("httpstream: base URL %q: scheme %q is not http(s)", c.BaseURL, u.Scheme)
	}
	if u.Host == "" {
		return fmt.Errorf("httpstream: base URL %q has no host", c.BaseURL)
	}
	if c.TimeCompression < 0 {
		return fmt.Errorf("httpstream: negative time compression %g", c.TimeCompression)
	}
	if v, ok := c.Link.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("httpstream: link: %w", err)
		}
	}
	if c.MaxSegments < 0 {
		return fmt.Errorf("httpstream: negative segment cap %d", c.MaxSegments)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("httpstream: negative request timeout %v", c.RequestTimeout)
	}
	if c.Retry != (RetryPolicy{}) {
		if err := c.Retry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SegmentRecord is one streamed segment: the session engine's record plus
// what the wire delivered.
type SegmentRecord struct {
	sim.SegmentTrace
	// Bytes is the payload received (0 when abandoned).
	Bytes int64
	// ViewCenter is the predicted viewport center the segment was fetched
	// for — the viewport report the online Ptile pipeline clusters.
	ViewCenter geom.Point
}

// SessionReport summarizes a client streaming run. Every total folds the
// per-segment records.
type SessionReport struct {
	VideoID  int
	Segments []SegmentRecord
	// TotalBytes is the summed payload volume.
	TotalBytes int64
	// TotalEnergyMJ is the summed Eq. 1 energy estimate.
	TotalEnergyMJ float64
	// PtileSegments counts Ptile-served segments.
	PtileSegments int
	// TotalRetries counts failed download attempts across the session.
	TotalRetries int
	// DegradedSegments counts segments served below the controller's
	// chosen rung.
	DegradedSegments int
	// AbandonedSegments counts segments skipped after the ladder was
	// exhausted.
	AbandonedSegments int
	// Stalls counts segments that charged rebuffering time.
	Stalls int
	// TotalStallSec is the summed rebuffering time.
	TotalStallSec float64
	// TotalQoELoss sums the per-segment QoE losses (fractions in [0, 1]);
	// divide by len(Segments) for the session mean.
	TotalQoELoss float64
}

// add appends one segment and folds it into the totals.
func (r *SessionReport) add(rec SegmentRecord) {
	r.Segments = append(r.Segments, rec)
	r.TotalBytes += rec.Bytes
	r.TotalEnergyMJ += rec.EnergyMJ
	if rec.FromPtile {
		r.PtileSegments++
	}
	r.TotalRetries += rec.Retries
	if rec.Degraded {
		r.DegradedSegments++
	}
	if rec.Abandoned {
		r.AbandonedSegments++
	}
	if rec.StallSec > 0 {
		r.Stalls++
		r.TotalStallSec += rec.StallSec
	}
	r.TotalQoELoss += rec.QoELoss
}

// Client streams a video from a Server: each session is the paper's session
// engine (sim.Stepper) stepped over real HTTP. It survives flaky
// transports: per-request timeouts, bounded retries with exponential
// backoff and jitter, and a degradation ladder that steps down to cheaper
// rungs — abandoning a segment only when every rung has failed — so an
// unreliable network degrades the session instead of killing it.
type Client struct {
	cfg     ClientConfig
	http    *http.Client
	timeout time.Duration
	retry   RetryPolicy
	obs     *clientObs // nil when cfg.Metrics is unset

	mu  sync.Mutex // guards rng
	rng *rand.Rand // backoff jitter draws
}

// NewClient validates the configuration and builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := power.TableI(cfg.Phone); err != nil {
		return nil, err
	}
	retry := cfg.Retry
	if retry == (RetryPolicy{}) {
		retry = DefaultRetryPolicy()
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = DefaultRequestTimeout
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = 1
	}
	hc := &http.Client{Timeout: 2 * time.Minute}
	if cfg.Transport != nil {
		hc.Transport = cfg.Transport
	}
	var co *clientObs
	if cfg.Metrics != nil {
		co = newClientObs(cfg.Metrics)
	}
	return &Client{
		cfg:     cfg,
		http:    hc,
		timeout: timeout,
		retry:   retry,
		obs:     co,
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// Tracer returns the client's per-segment span recorder (nil without
// Metrics) for stitching cross-tier traces in a SpanHub.
func (c *Client) Tracer() *obs.Tracer {
	if c.obs == nil {
		return nil
	}
	return c.obs.tracer
}

// jitter draws a uniform jitter sample under the client lock.
func (c *Client) jitter() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// backoffWait sleeps before the retry-th retry: the policy's backoff,
// raised to any Retry-After hint the failed attempt carried (capped at the
// policy's max delay), aborting promptly when the session context dies.
func (c *Client) backoffWait(ctx context.Context, retry int, lastErr error) error {
	return sleepCtx(ctx, c.retry.BackoffWithHint(retry, c.jitter(), retryAfterHint(lastErr)))
}

// cancelBody ties a request-scoped cancel to the response body's Close so
// per-request contexts do not leak.
type cancelBody struct {
	rc     io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Read(p []byte) (int, error) { return b.rc.Read(p) }
func (b *cancelBody) Close() error {
	err := b.rc.Close()
	b.cancel()
	return err
}

// get issues one GET bounded by the per-request timeout.
func (c *Client) get(ctx context.Context, rawURL string) (*http.Response, error) {
	reqCtx, cancel := ctx, context.CancelFunc(func() {})
	if c.timeout > 0 {
		reqCtx, cancel = context.WithTimeout(ctx, c.timeout)
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, rawURL, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	if c.cfg.ClientID != "" {
		req.Header.Set("X-Client-Id", c.cfg.ClientID)
	}
	// Propagate the segment span's trace across the wire so the router,
	// resilience chain, and server stitch their spans under the same trace.
	if tc, ok := obs.TraceFromContext(ctx); ok {
		tc.SetHeader(req.Header)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{rc: resp.Body, cancel: cancel}
	return resp, nil
}

// FetchManifest downloads and decodes the manifest for the given video.
func (c *Client) FetchManifest(videoID int) (*Manifest, error) {
	return c.FetchManifestContext(context.Background(), videoID)
}

// FetchManifestContext is FetchManifest bounded by a session context, with
// the client's retry policy applied to transient failures.
func (c *Client) FetchManifestContext(ctx context.Context, videoID int) (*Manifest, error) {
	m, _, err := c.fetchManifest(ctx, videoID)
	return m, err
}

// fetchManifest is FetchManifestContext that also returns the successful
// fetch's goodput in bits/s.
func (c *Client) fetchManifest(ctx context.Context, videoID int) (*Manifest, float64, error) {
	var lastErr error
	attempts := 0
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.backoffWait(ctx, attempt, lastErr); err != nil {
				return nil, 0, fmt.Errorf("httpstream: fetch manifest: %w", err)
			}
		}
		m, goodput, err := c.fetchManifestOnce(ctx, videoID)
		if err == nil {
			return m, goodput, nil
		}
		lastErr = err
		attempts++
		if !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	return nil, 0, fmt.Errorf("httpstream: fetch manifest (%d attempts): %w", attempts, lastErr)
}

func (c *Client) fetchManifestOnce(ctx context.Context, videoID int) (*Manifest, float64, error) {
	start := time.Now()
	resp, err := c.get(ctx, fmt.Sprintf("%s/manifest?video=%d", c.cfg.BaseURL, videoID))
	if err != nil {
		return nil, 0, fmt.Errorf("fetch manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, 0, fmt.Errorf("manifest: %w", newStatusError(resp))
	}
	body := &countingReader{r: resp.Body}
	m, err := DecodeManifest(body)
	if err != nil {
		return nil, 0, err
	}
	return m, float64(body.n*8) / math.Max(time.Since(start).Seconds(), 1e-6), nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.n += int64(n)
	return n, err
}

// Stream plays the whole video for the given viewer, returning the
// per-segment accounting.
func (c *Client) Stream(videoID int, viewer *headtrace.Trace) (*SessionReport, error) {
	return c.StreamContext(context.Background(), videoID, viewer)
}

// StreamContext plays the video under a session context: cancelling it
// aborts the session promptly, including mid-backoff and mid-download. The
// session is a sim.Stepper over the catalogue the manifest describes, with
// the HTTP fetch as its link; every decision and every QoE, stall and
// energy number is the engine's.
func (c *Client) StreamContext(ctx context.Context, videoID int, viewer *headtrace.Trace) (*SessionReport, error) {
	if viewer == nil || len(viewer.Samples) == 0 {
		return nil, fmt.Errorf("httpstream: empty viewer trace")
	}
	man, probe, err := c.fetchManifest(ctx, videoID)
	if err != nil {
		return nil, err
	}
	cfg, err := c.sessionConfig(man)
	if err != nil {
		return nil, err
	}
	st, err := sim.NewStepper(man.catalog(), cfg)
	if err != nil {
		return nil, err
	}
	link := &sessionLink{c: c, video: videoID, cv: man.CatalogVersion, probe: probe}
	state, err := st.NewState(viewer, link)
	if err != nil {
		return nil, err
	}
	n := len(man.Segments)
	if c.cfg.MaxSegments > 0 && c.cfg.MaxSegments < n {
		n = c.cfg.MaxSegments
	}

	// Open the session's flight-recorder ring (nil when unsampled or the
	// recorder is absent — every Record below is then one branch).
	var fs *obs.FlightSession
	if c.cfg.Flight != nil {
		id := c.cfg.ClientID
		if id == "" {
			id = fmt.Sprintf("video-%d", videoID)
		}
		fs = c.cfg.Flight.Session(id)
		defer fs.Close()
		fs.Record(obs.FlightEvent{Kind: obs.FlightJoin, Seg: -1})
	}

	report := &SessionReport{VideoID: videoID}
	for seg := 0; seg < n; seg++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("httpstream: session cancelled at segment %d: %w", seg, err)
		}
		link.ctx, link.span = ctx, nil
		if c.obs != nil {
			link.span = c.obs.tracer.Start(fmt.Sprintf("%s/seg%d", c.cfg.ClientID, seg))
			// Mint a fresh trace per segment and re-parent the context so
			// every download attempt carries it across the wire.
			link.span.WithTrace(obs.TraceContext{})
			link.ctx = obs.WithTraceContext(ctx, link.span.TraceContext())
		}
		if _, err := st.Step(state); err != nil {
			return nil, err
		}
		rec := SegmentRecord{SegmentTrace: state.PerSegment()[seg], Bytes: link.bytes, ViewCenter: link.center}
		report.add(rec)
		if fs != nil {
			now := float64(seg) * man.SegmentSec
			if rec.StallSec > 0 {
				fs.Record(obs.FlightEvent{TimeSec: now, Kind: obs.FlightStall, Seg: int32(seg), V1: rec.StallSec})
			}
			if rec.Abandoned {
				fs.Record(obs.FlightEvent{TimeSec: now, Kind: obs.FlightAbandon, Seg: int32(seg), V2: rec.StallSec, V3: 1})
			} else {
				fs.Record(obs.FlightEvent{TimeSec: now, Kind: obs.FlightDownload, Seg: int32(seg), V1: float64(rec.Bytes), V2: rec.StallSec, V3: rec.QoELoss})
			}
		}
		c.emitTelemetry(videoID, man.SegmentSec, rec, link.span)
	}
	if fs != nil {
		fs.Record(obs.FlightEvent{TimeSec: float64(n) * man.SegmentSec, Kind: obs.FlightLeave, Seg: int32(n)})
	}
	return report, nil
}

// sessionConfig is the engine configuration of one session: the paper's
// evaluation setting for the scheme UseMPC selects, with the segment
// duration, frame-rate ladder and grid the manifest advertises.
func (c *Client) sessionConfig(man *Manifest) (sim.Config, error) {
	scheme := sim.SchemePtile
	if c.cfg.UseMPC {
		scheme = sim.SchemeOurs
	}
	cfg, err := sim.DefaultConfig(scheme, c.cfg.Phone)
	if err != nil {
		return sim.Config{}, err
	}
	if cfg.Grid, err = geom.NewGrid(man.GridRows, man.GridCols); err != nil {
		return sim.Config{}, err
	}
	cfg.SegmentSec = man.SegmentSec
	cfg.Encoder.FrameRate = man.SourceFPS
	cfg.FrameRates = []float64{man.SourceFPS}
	if scheme == sim.SchemeOurs {
		cfg.FrameRates = man.FrameRates
	}
	cfg.Estimator = c.cfg.Estimator
	cfg.RecordSegments = true
	return cfg, nil
}

// catalog rebuilds the engine catalogue the manifest was cut from: the
// per-segment content and Ptile rects (the Ftile baseline is not served).
func (m *Manifest) catalog() *sim.Catalog {
	n := len(m.Segments)
	cat := &sim.Catalog{
		Video:      video.Profile{ID: m.VideoID},
		SegmentSec: m.SegmentSec,
		Content:    make([]video.SegmentContent, n),
		Ptiles:     make([][]ptile.Ptile, n),
		Ftiles:     make([][]sim.FtileGroup, n),
	}
	for i, seg := range m.Segments {
		cat.Content[i] = video.SegmentContent{SI: seg.SI, TI: seg.TI, Jitter: seg.Jitter}
		for _, r := range seg.Ptiles {
			cat.Ptiles[i] = append(cat.Ptiles[i], ptile.Ptile{Rect: r.toRect()})
		}
	}
	return cat
}

// emitTelemetry converts one segment's accounting into a telemetry record,
// feeds the registry, closes the segment span, and invokes the callback.
func (c *Client) emitTelemetry(videoID int, segmentSec float64, rec SegmentRecord, span *obs.Span) {
	if span != nil {
		span.Stage("account")
		span.End()
	}
	if c.obs == nil && c.cfg.Telemetry == nil {
		return
	}
	tr := telemetryFrom(c.cfg.ClientID, videoID, segmentSec, rec)
	c.obs.observe(tr)
	if c.cfg.Telemetry != nil {
		c.cfg.Telemetry(tr)
	}
}

// sessionLink is one session's network as the engine sees it, a
// sim.Fetcher: Fetch GETs the controller's choice over HTTP, retrying
// failed attempts and stepping down the degradation ladder, and charges
// each transfer to the configured shaping Link. It keeps the wire facts of
// the last fetch for the segment's telemetry.
type sessionLink struct {
	c     *Client
	ctx   context.Context // the current segment's context, carrying its trace
	span  *obs.Span       // the current segment's span; nil without Metrics
	video int
	cv    int64
	probe float64 // manifest goodput in bits/s: the unshaped startup probe

	bytes  int64      // payload the last fetch delivered
	center geom.Point // viewport center the last fetch was for
}

// Download charges a transfer to the shaping link. The engine itself
// fetches through Fetch.
func (l *sessionLink) Download(bits, startSec float64) (float64, error) {
	if l.c.cfg.Link == nil {
		return 0, fmt.Errorf("httpstream: an unshaped session has no link to charge")
	}
	return l.c.cfg.Link.Download(bits, startSec)
}

// RateAt is the shaping link's rate, or on an unshaped session the
// manifest fetch's goodput: the estimator's startup probe.
func (l *sessionLink) RateAt(t float64) float64 {
	if l.c.cfg.Link == nil {
		return l.probe
	}
	return l.c.cfg.Link.RateAt(t)
}

// Packets is the shaping link's packet feed of its last transfer, if it
// has one.
func (l *sessionLink) Packets() []netem.PacketSample {
	if pl, ok := l.c.cfg.Link.(sim.PacketLink); ok {
		return pl.Packets()
	}
	return nil
}

// Fetch downloads one segment. The segment span's "decide" stage ends here
// (Step predicts and decides before it fetches) and its "download" stage
// with the fetch.
func (l *sessionLink) Fetch(req sim.FetchRequest) (sim.FetchOutcome, error) {
	l.stage("decide")
	out, err := l.fetch(req)
	l.stage("download")
	return out, err
}

func (l *sessionLink) stage(name string) {
	if l.span != nil {
		l.span.Stage(name)
	}
}

// fetch walks the degradation ladder: each rung gets the retry budget, each
// attempt starts on the session clock where the previous one's charged
// transfer ended, and when every rung is exhausted the segment is abandoned
// rather than failing the session. Only context cancellation, permanent
// (4xx) errors and, under NoDegrade, an exhausted first rung propagate.
func (l *sessionLink) fetch(req sim.FetchRequest) (sim.FetchOutcome, error) {
	l.bytes, l.center = 0, req.Center
	var out sim.FetchOutcome
	var lastErr error
	for rung, opt := range degradeLadder(req.Options, req.Chosen) {
		for attempt := 0; attempt < l.c.retry.MaxAttempts; attempt++ {
			if attempt > 0 {
				if err := l.c.backoffWait(l.ctx, attempt, lastErr); err != nil {
					return out, fmt.Errorf("httpstream: segment %d: %w", req.Segment, err)
				}
			}
			nBytes, elapsed, err := l.attempt(req, opt, req.StartSec+out.WastedSec)
			if err == nil {
				l.bytes = nBytes
				out.Delivered, out.Rung, out.DownloadSec = opt, rung, elapsed
				return out, nil
			}
			out.Retries++
			out.WastedSec += elapsed
			lastErr = err
			if l.ctx.Err() != nil {
				return out, fmt.Errorf("httpstream: segment %d: %w", req.Segment, l.ctx.Err())
			}
			if !retryable(err) {
				return out, err
			}
		}
		if l.c.cfg.NoDegrade {
			return out, fmt.Errorf("httpstream: segment %d failed after %d attempts: %w", req.Segment, out.Retries, lastErr)
		}
	}
	out.Abandoned = true
	return out, nil
}

// degradeLadder orders the fallback rungs for a segment: the controller's
// choice first, then every cheaper (smaller) version by descending size,
// ending at the smallest. Repeated failure walks down this ladder.
func degradeLadder(options []abr.OptionMeta, chosen abr.OptionMeta) []abr.OptionMeta {
	rungs := make([]abr.OptionMeta, 0, len(options))
	for _, o := range options {
		if o.Option == chosen.Option || o.SizeBits < chosen.SizeBits {
			rungs = append(rungs, o)
		}
	}
	sort.SliceStable(rungs, func(i, j int) bool {
		if rungs[i].Option == chosen.Option {
			return true
		}
		if rungs[j].Option == chosen.Option {
			return false
		}
		return rungs[i].SizeBits > rungs[j].SizeBits
	})
	return rungs
}

// attempt GETs one segment version starting at session time at and charges
// it to the shaping link: a complete body costs the version's modelled
// size, a broken one the bits that arrived. It returns the byte count and
// the elapsed (charged, or on an unshaped session real) seconds; on failure
// both are still returned so the caller can account the waste.
func (l *sessionLink) attempt(req sim.FetchRequest, opt abr.OptionMeta, at float64) (int64, float64, error) {
	seg := req.Segment
	u := fmt.Sprintf("%s/segment?video=%d&seg=%d&q=%d&f=%s",
		l.c.cfg.BaseURL, l.video, seg, int(opt.Quality),
		strconv.FormatFloat(opt.FrameRate, 'f', -1, 64))
	if l.cv > 0 {
		// Pin the session to the catalogue generation its manifest was cut
		// from: hot swaps must not change the Ptile geometry under a
		// session mid-stream.
		u += fmt.Sprintf("&cv=%d", l.cv)
	}
	if req.Ptile >= 0 {
		u += fmt.Sprintf("&ptile=%d", req.Ptile)
	} else {
		u += fmt.Sprintf("&cx=%g&cy=%g", req.Center.X, req.Center.Y)
	}
	resp, err := l.c.get(l.ctx, u)
	if err != nil {
		return 0, 0, fmt.Errorf("httpstream: segment %d: %w", seg, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, 0, fmt.Errorf("httpstream: segment %d: %w", seg, newStatusError(resp))
	}
	hdr, err := ParseSegmentHeader(resp.Header)
	if err != nil {
		return 0, 0, fmt.Errorf("httpstream: segment %d: %w", seg, err)
	}

	start := time.Now()
	var nBytes int64
	var readErr error
	buf := make([]byte, 64*1024)
	for {
		n, err := resp.Body.Read(buf)
		nBytes += int64(n)
		if nBytes > maxSegmentBytes {
			readErr = fmt.Errorf("body exceeds cap %d", int64(maxSegmentBytes))
			break
		}
		if err == io.EOF {
			if hdr.ContentLength >= 0 && nBytes != hdr.ContentLength {
				readErr = fmt.Errorf("truncated body: %d of %d bytes: %w", nBytes, hdr.ContentLength, io.ErrUnexpectedEOF)
			}
			break
		}
		if err != nil {
			readErr = err
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	if l.c.cfg.Link != nil && nBytes > 0 {
		// The body was read at local speed; charge the link's transfer time
		// instead, and sleep it off once.
		bits := opt.SizeBits
		if readErr != nil {
			bits = float64(nBytes * 8)
		}
		dur, derr := l.Download(bits, at)
		if derr != nil {
			return nBytes, elapsed, fmt.Errorf("httpstream: segment %d: %w", seg, derr)
		}
		compression := l.c.cfg.TimeCompression
		if compression == 0 {
			compression = 1
		}
		time.Sleep(time.Duration(dur / compression * float64(time.Second)))
		elapsed = dur
	}
	if elapsed <= 0 {
		elapsed = 1e-6
	}
	if readErr != nil {
		return nBytes, elapsed, fmt.Errorf("httpstream: segment %d read: %w", seg, readErr)
	}
	return nBytes, elapsed, nil
}
