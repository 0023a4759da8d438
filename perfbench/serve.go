package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ptile360/internal/headtrace"
	"ptile360/internal/httpstream"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/ptilelive"
	"ptile360/internal/resilience"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// serveVideos are the videos both shards serve (cmd/ptileserver's default).
var serveVideos = []int{2, 8}

// sessionsPerRebuild is how many completed sessions separate two online
// Ptile rebuilds on serve-rebuild. Each rebuild swaps both videos, two
// catalogue generations per shard, so a session pinned to a generation
// outlives it only if four rebuilds land while it plays; with at most nproc
// sessions in flight that needs far more than this many completions.
const sessionsPerRebuild = 4

// serveViewersPerVideo is how many evaluation viewers of each video the
// clients cycle on serve. Two per video keep the edge cache's working set
// near 450 bodies (about 220 MB); all eight per video would hold about 1,800
// bodies, 880 MB, because the cache bounds entries, not bytes. serve-rebuild
// cycles all eight: its catalogue bumps flush the cache every few sessions,
// and with two viewers per video the seed's draw of them moved its
// throughput by about 15 % from one seed to the next.
const serveViewersPerVideo = 2

// serveWarmup is how long the clients stream before the measured window
// opens, so the window starts with connections open and the edge cache and
// the online pipeline already fed.
const serveWarmup = 2 * time.Second

// viewer is one evaluation viewer of one video.
type viewer struct {
	video int
	trace *headtrace.Trace
}

// serveFixture is the catalogue set and the evaluation viewers the clients
// cycle through: perVideo of each video's evaluation viewers, or all of
// them when perVideo is 0.
type serveFixture struct {
	catalogs map[int]*sim.Catalog
	viewers  []viewer
}

func buildServeFixture(seed int64, tiny bool, perVideo int) (*serveFixture, error) {
	users, train := 48, 40
	if tiny {
		users, train = 12, 10
	}
	fx := &serveFixture{catalogs: make(map[int]*sim.Catalog)}
	evals := make([][]*headtrace.Trace, len(serveVideos))
	for i, id := range serveVideos {
		p, err := video.ProfileByID(id)
		if err != nil {
			return nil, err
		}
		gcfg := headtrace.DefaultGeneratorConfig()
		gcfg.NumUsers = users
		ds, err := headtrace.Generate(p, gcfg, seed)
		if err != nil {
			return nil, err
		}
		tr, ev, err := ds.SplitTrainEval(train, seed+1)
		if err != nil {
			return nil, err
		}
		ccfg, err := sim.DefaultCatalogConfig()
		if err != nil {
			return nil, err
		}
		ccfg.Seed = seed
		cat, err := sim.BuildCatalog(p, tr, ccfg)
		if err != nil {
			return nil, err
		}
		fx.catalogs[id] = cat
		evals[i] = ev
	}
	// Interleave the videos so consecutive sessions alternate between them.
	for _, ev := range evals {
		if perVideo <= 0 || len(ev) < perVideo {
			perVideo = len(ev)
		}
	}
	for j := 0; j < perVideo; j++ {
		for i, id := range serveVideos {
			fx.viewers = append(fx.viewers, viewer{video: id, trace: evals[i][j]})
		}
	}
	return fx, nil
}

// shardTier is one shard: the flight middleware over a resilience chain
// over an instrumented server, with its own registry, TSDB and SLO engine,
// as cmd/ptileserver assembles one server by default.
type shardTier struct {
	name  string
	srv   *httpstream.Server
	chain *resilience.Chain
	db    *obs.TSDB
}

// tier is the serving tier under test plus the benchmark's wrappers.
type tier struct {
	shards   []*shardTier
	router   *httpstream.Router
	http     *http.Server
	served   chan error
	baseURL  string
	pipeline *ptilelive.Pipeline
	base     map[int]*sim.Catalog
	// gate orders manifest requests against a catalogue swap across the
	// shards: the tier has no cross-shard swap transaction, so without it a
	// manifest could name a generation one shard has not published yet.
	gate sync.RWMutex
	tr   *tracer // nil unless the run is traced
	// rec holds server-side samples of traced runs.
	rec serveRecorder
}

// serveRecorder collects the samples that are not spans.
type serveRecorder struct {
	mu      sync.Mutex
	ingest  []float64 // µs per pipeline ingest
	rebuild []float64 // ms per Pipeline.Rebuild
	swap    []float64 // ms per Server.SwapCatalog
	bump    []float64 // ms per Router.BumpCatalogVersion
}

func (r *serveRecorder) add(dst *[]float64, v float64) {
	r.mu.Lock()
	*dst = append(*dst, v)
	r.mu.Unlock()
}

// Headers the benchmark's transport sets on traced requests so the
// server-side wrappers can parent their spans under the client's fetch.
const (
	spanHeader  = "X-Bench-Span"
	traceHeader = "X-Bench-Trace"
)

// reqSpan is the per-request tracing state the router wrapper puts in the
// request context for the wrappers below it.
type reqSpan struct {
	trace  uint64
	parent uint64
	shard  atomic.Bool // set when the request reached a shard (edge-cache miss)
}

type reqSpanKey struct{}

func spanFrom(r *http.Request) *reqSpan {
	rs, _ := r.Context().Value(reqSpanKey{}).(*reqSpan)
	return rs
}

// layerWrap times one layer's ServeHTTP for traced requests.
type layerWrap struct {
	t    *tier
	name func(*http.Request) string
	next http.Handler
}

func (l *layerWrap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rs := spanFrom(r)
	if rs == nil {
		l.next.ServeHTTP(w, r)
		return
	}
	rs.shard.Store(true)
	id, parent := l.t.tr.newID(), rs.parent
	child := &reqSpan{trace: rs.trace, parent: id}
	start := time.Now()
	l.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqSpanKey{}, child)))
	l.t.tr.add(l.name(r), id, parent, rs.trace, start, time.Now())
}

// ServeHTTP is the tier's front door: the manifest gate on serve-rebuild,
// then the router, timed for traced requests.
func (t *tier) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if t.pipeline != nil && r.URL.Path == "/manifest" {
		t.gate.RLock()
		defer t.gate.RUnlock()
	}
	ps := r.Header.Get(spanHeader)
	if t.tr == nil || ps == "" {
		t.router.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(ps, 10, 64)
	trace, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	id := t.tr.newID()
	rs := &reqSpan{trace: trace, parent: id}
	start := time.Now()
	t.router.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqSpanKey{}, rs)))
	name := "router.hit"
	if rs.shard.Load() {
		name = "router.miss"
	}
	t.tr.add(name, id, parent, trace, start, time.Now())
}

func buildTier(fx *serveFixture, rebuild bool, tr *tracer) (*tier, error) {
	t := &tier{tr: tr, base: fx.catalogs, served: make(chan error, 1)}
	if rebuild {
		lcfg, err := ptilelive.DefaultConfig()
		if err != nil {
			return nil, err
		}
		if t.pipeline, err = ptilelive.New(lcfg); err != nil {
			return nil, err
		}
	}
	wrap := func(name func(*http.Request) string, h http.Handler) http.Handler {
		if tr == nil {
			return h
		}
		return &layerWrap{t: t, name: name, next: h}
	}
	fixed := func(n string) func(*http.Request) string { return func(*http.Request) string { return n } }
	var shards []httpstream.Shard
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		cats := make(map[int]*sim.Catalog, len(fx.catalogs))
		for id, c := range fx.catalogs {
			cats[id] = c
		}
		srv, err := httpstream.NewServer(cats, video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
		if err != nil {
			return nil, err
		}
		srv.Instrument(reg, nil)
		if t.pipeline != nil {
			p := t.pipeline
			if tr == nil {
				srv.SetViewportSink(p.IngestTelemetry)
			} else {
				srv.SetViewportSink(func(v, seg int, x, y float64) {
					start := time.Now()
					p.IngestTelemetry(v, seg, x, y)
					t.rec.add(&t.rec.ingest, float64(time.Since(start))/float64(time.Microsecond))
				})
			}
		}
		ccfg := resilience.DefaultConfig()
		ccfg.Registry = reg
		chain, err := resilience.NewChain(ccfg, wrap(func(r *http.Request) string { return "server" + r.URL.Path }, srv))
		if err != nil {
			return nil, err
		}
		flight := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 16, Registry: reg})
		db := obs.NewTSDB(reg, obs.TSDBConfig{Resolutions: []obs.Resolution{
			{Step: time.Second, Slots: 120},
			{Step: 10 * time.Second, Slots: 90},
			{Step: 60 * time.Second, Slots: 60},
		}})
		slos, err := obs.NewSLOEngine(db, reg, []obs.Objective{
			{
				Name:    "availability",
				Kind:    obs.SLOEventRatio,
				Target:  0.99,
				Bad:     []obs.Selector{obs.Sel("httpstream_requests_total", obs.L("code", "5*"))},
				Total:   []obs.Selector{obs.Sel("httpstream_requests_total")},
				Windows: obs.BurnWindows(time.Second),
			},
			{
				Name:         "latency",
				Kind:         obs.SLOLatency,
				Target:       0.95,
				Latency:      obs.Sel("httpstream_request_seconds"),
				ThresholdSec: 0.5,
				Windows:      obs.BurnWindows(time.Second),
			},
		})
		if err != nil {
			return nil, err
		}
		slos.OnBurn(func(name string) { flight.TriggerAll("slo:" + name) })
		st := &shardTier{name: fmt.Sprintf("shard-%d", i), srv: srv, chain: chain, db: db}
		t.shards = append(t.shards, st)
		h := httpstream.FlightMiddleware(flight, wrap(fixed("chain"), chain))
		shards = append(shards, httpstream.Shard{Name: st.name, Handler: wrap(fixed("shard.flight"), h)})
	}
	router, err := httpstream.NewRouter(httpstream.RouterConfig{}, shards...)
	if err != nil {
		return nil, err
	}
	t.router = router
	return t, nil
}

// start listens on a loopback port and starts the shards' TSDB samplers.
func (t *tier) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.baseURL = "http://" + ln.Addr().String()
	t.http = &http.Server{Handler: t, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 120 * time.Second}
	go func() { t.served <- t.http.Serve(ln) }()
	for _, s := range t.shards {
		s.db.Start()
	}
	return nil
}

// stop drains the listener and stops every sampler; it returns once the
// serving goroutines have exited.
func (t *tier) stop() error {
	for _, s := range t.shards {
		s.db.Stop()
	}
	if t.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.http.Shutdown(ctx)
	if sErr := <-t.served; err == nil && !errors.Is(sErr, http.ErrServerClosed) {
		err = sErr
	}
	return err
}

// rebuildOnce regenerates both videos' online Ptiles, publishes them on
// every shard and invalidates the edge cache.
func (t *tier) rebuildOnce() error {
	cats := make([]*sim.Catalog, 0, len(serveVideos))
	for _, id := range serveVideos {
		start := time.Now()
		if _, err := t.pipeline.Rebuild(id); err != nil {
			return err
		}
		t.rec.add(&t.rec.rebuild, millis(time.Since(start)))
		t.tr.add("ptilelive.rebuild", t.tr.newID(), 0, 0, start, time.Now())
		cats = append(cats, t.pipeline.ApplyToCatalog(t.base[id]))
	}
	t.gate.Lock()
	for _, cat := range cats {
		for _, s := range t.shards {
			start := time.Now()
			s.srv.SwapCatalog(cat)
			t.rec.add(&t.rec.swap, millis(time.Since(start)))
		}
	}
	t.gate.Unlock()
	start := time.Now()
	t.router.BumpCatalogVersion()
	t.rec.add(&t.rec.bump, millis(time.Since(start)))
	return nil
}

// clientState is one client goroutine's measurement state. Only that
// goroutine touches it: http.Client calls RoundTrip and the body reads on
// the caller's goroutine.
type clientState struct {
	tr      *tracer // set for traced sessions
	session uint64
	trace   uint64
	corrupt bool

	segTimes   []segTiming // request sent → body fully read
	reqEnds    []time.Time // when each answered request's body was read
	segBytes   int64
	segments   int
	requests   int
	mismatches int // bodies whose length differs from Content-Length
	incomplete int // segment bodies closed before the end
}

// segTiming is one segment request, from send until its body was read.
type segTiming struct {
	start, end time.Time
}

// benchTransport times every request from send until the body is fully
// read and checks each body's length against Content-Length.
type benchTransport struct {
	base http.RoundTripper
	st   *clientState
}

func (b *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st := b.st
	var id uint64
	if st.tr != nil {
		id = st.tr.newID()
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		req.Header.Set(traceHeader, strconv.FormatUint(st.trace, 10))
	}
	start := time.Now()
	resp, err := b.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	st.requests++
	resp.Body = &timedBody{rc: resp.Body, st: st, id: id, start: start, headers: time.Now(),
		segment: req.URL.Path == "/segment" && resp.StatusCode == http.StatusOK, want: resp.ContentLength}
	return resp, nil
}

type timedBody struct {
	rc             io.ReadCloser
	st             *clientState
	id             uint64
	start, headers time.Time
	segment        bool
	want, n        int64
	done           bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF && !b.done {
		b.done = true
		b.finish(time.Now())
	}
	return n, err
}

func (b *timedBody) finish(end time.Time) {
	st := b.st
	n := b.n
	if st.corrupt && b.segment && st.segments == 10 {
		n++ // a damaged body, for the tests
	}
	if b.want >= 0 && n != b.want {
		st.mismatches++
	}
	name := "client.fetch.manifest"
	st.reqEnds = append(st.reqEnds, end)
	if b.segment {
		name = "client.fetch.segment"
		st.segments++
		st.segBytes += b.n
		st.segTimes = append(st.segTimes, segTiming{start: b.start, end: end})
	}
	if st.tr != nil {
		st.tr.addMarked(name, b.id, st.session, st.trace, b.start, b.headers, end)
	}
}

func (b *timedBody) Close() error {
	if !b.done && b.segment {
		b.st.incomplete++
	}
	b.done = true
	return b.rc.Close()
}

// sessionResult is one streamed session.
type sessionResult struct {
	video    int
	start    time.Time
	wall     time.Duration
	segments int
	traced   bool
	retries  int
	degraded int
	abandon  int
	err      error
}

// runClient streams whole sessions back to back until stop closes,
// cycling the viewers from offset c, so concurrent clients stream
// different viewers that share the same segments a session later.
func runClient(t *tier, fx *serveFixture, c int, maxSegs int, traced func(k int) bool, corrupt bool,
	done func(), stop <-chan struct{}) (*clientState, []sessionResult, error) {
	st := &clientState{corrupt: corrupt}
	base := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer base.CloseIdleConnections()
	cl, err := httpstream.NewClient(httpstream.ClientConfig{
		BaseURL:     t.baseURL,
		Phone:       power.Pixel3,
		UseMPC:      true,
		MaxSegments: maxSegs,
		ClientID:    fmt.Sprintf("client-%d", c),
		Transport:   &benchTransport{base: base, st: st},
	})
	if err != nil {
		return nil, nil, err
	}
	var results []sessionResult
	for k := 0; ; k++ {
		select {
		case <-stop:
			return st, results, nil
		default:
		}
		v := fx.viewers[(c+k)%len(fx.viewers)]
		res := sessionResult{video: v.video, traced: traced(k)}
		st.tr = nil
		if res.traced {
			st.tr = t.tr
			st.session, st.trace = t.tr.newID(), t.tr.newID()
		}
		start := time.Now()
		rep, err := cl.Stream(v.video, v.trace)
		end := time.Now()
		res.start, res.wall = start, end.Sub(start)
		if err != nil {
			res.err = err
		} else {
			res.segments = len(rep.Segments)
			res.retries = rep.TotalRetries
			res.degraded = rep.DegradedSegments
			res.abandon = rep.AbandonedSegments
		}
		if res.traced {
			t.tr.add("client.session", st.session, 0, st.trace, start, end)
		}
		results = append(results, res)
		done()
	}
}

func runServe(cfg config, rebuild bool) (*outcome, error) {
	out := &outcome{}
	maxSegs := 0
	if cfg.tiny {
		maxSegs = 12
	}
	// Set-up, repeated setupReps times: fixtures and catalogues, then the
	// tier. The last tier serves the run.
	var setups []float64
	var fx *serveFixture
	var t *tier
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		perVideo := serveViewersPerVideo
		if rebuild {
			perVideo = 0
		}
		if fx, err = buildServeFixture(cfg.seed, cfg.tiny, perVideo); err != nil {
			return nil, err
		}
		if t, err = buildTier(fx, rebuild, tr); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(start)))
	}
	if err := t.start(); err != nil {
		return nil, err
	}

	nproc := runtime.NumCPU()
	stop := make(chan struct{})
	var completed atomic.Int64
	kick := make(chan struct{}, 1)
	var rebuildErr error
	var rebuilds int
	var rwg sync.WaitGroup
	if rebuild {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for range kick {
				if err := t.rebuildOnce(); err != nil && rebuildErr == nil {
					rebuildErr = err
				}
				rebuilds++
			}
		}()
	}
	done := func() {
		if n := completed.Add(1); rebuild && n%sessionsPerRebuild == 0 {
			select {
			case kick <- struct{}{}:
			default: // a rebuild is already pending
			}
		}
	}
	traced := func(k int) bool { return cfg.trace && k%2 == 1 }

	runtime.GC()
	ledBefore := t.router.Ledger()
	type clientOut struct {
		st   *clientState
		res  []sessionResult
		err  error
		last time.Time
	}
	outs := make([]clientOut, nproc)
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st, res, err := runClient(t, fx, c, maxSegs, traced, cfg.corrupt == "body" && c == 0, done, stop)
			outs[c] = clientOut{st: st, res: res, err: err, last: time.Now()}
		}(c)
	}
	// The measured window opens once the clients have streamed for the
	// warm-up. Every client finishes at least one session inside it, and in
	// traced runs one traced and one untraced session.
	if !cfg.tiny {
		time.Sleep(serveWarmup)
	}
	heap := startHeapWatch()
	before := readRuntime()
	windowStart := time.Now()
	warmed := completed.Load()
	minSessions := int64(nproc)
	if cfg.trace {
		minSessions = int64(2 * nproc)
	}
	end := deadline(cfg)
	for time.Now().Before(end) || completed.Load()-warmed < minSessions {
		time.Sleep(5 * time.Millisecond)
	}
	windowEnd := time.Now()
	close(stop)
	wg.Wait()
	after := readRuntime()
	heapPeak := heap.finish()
	close(kick)
	rwg.Wait()
	// Read the ledgers once the server has shut down: a client can read a
	// whole body before the handler that wrote it has returned and counted
	// the request.
	if err := t.stop(); err != nil {
		return nil, err
	}
	led := t.router.Ledger()
	snaps := make([]resilience.Snapshot, len(t.shards))
	for i, s := range t.shards {
		snaps[i] = s.chain.Snapshot()
	}
	if rebuildErr != nil {
		return nil, fmt.Errorf("online rebuild: %w", rebuildErr)
	}

	// Output checks.
	var sessions []sessionResult
	var segTimes []segTiming
	var reqEnds []time.Time
	var segs, reqs, mismatches, incomplete int
	var bytes int64
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		sessions = append(sessions, o.res...)
		segTimes = append(segTimes, o.st.segTimes...)
		reqEnds = append(reqEnds, o.st.reqEnds...)
		segs += o.st.segments
		reqs += o.st.requests
		mismatches += o.st.mismatches
		incomplete += o.st.incomplete
		bytes += o.st.segBytes
	}
	var played, retries, degraded, abandoned, sessErrs int
	var sessErr error
	for _, s := range sessions {
		played += s.segments
		retries += s.retries
		degraded += s.degraded
		abandoned += s.abandon
		if s.err != nil {
			sessErrs++
			sessErr = s.err
		}
	}
	if cfg.corrupt == "ledger" {
		led.Requests++
	}
	dReq := led.Requests - ledBefore.Requests
	dHits := led.CacheHits - ledBefore.CacheHits
	dShard := led.ShardRequests - ledBefore.ShardRequests
	dUnrouted := led.Unrouted - ledBefore.Unrouted
	var perShard, terminal int64
	var chainTotals resilience.Counters
	for i, s := range t.shards {
		perShard += led.PerShard[s.name] - ledBefore.PerShard[s.name]
		tot := snaps[i].Totals()
		terminal += tot.Terminal()
		chainTotals.Shed += tot.Shed
		chainTotals.Limited += tot.Limited
		chainTotals.Broken += tot.Broken
		chainTotals.Panicked += tot.Panicked
	}
	ledgerOK := dReq == dHits+dShard+dUnrouted && perShard == dShard && dUnrouted == 0 &&
		terminal == led.ShardRequests && dReq == int64(reqs)
	out.check("serve.router_ledger", ledgerOK,
		"requests %d = hits %d + shard %d + unrouted %d; per-shard sum %d; chain terminal outcomes %d; client requests %d",
		dReq, dHits, dShard, dUnrouted, perShard, terminal, reqs)
	out.check("serve.body_lengths", mismatches == 0 && incomplete == 0,
		"%d of %d bodies differ from Content-Length, %d segment bodies cut short", mismatches, reqs, incomplete)
	faultDetail := fmt.Sprintf("%d sessions: %d retried attempts, %d degraded, %d abandoned segments, %d failed sessions",
		len(sessions), retries, degraded, abandoned, sessErrs)
	if sessErr != nil {
		faultDetail += ": " + sessErr.Error()
	}
	out.check("serve.fault_free", retries == 0 && degraded == 0 && abandoned == 0 && sessErrs == 0, "%s", faultDetail)
	if rebuild {
		out.check("serve.rebuilds", rebuilds > 0, "%d online Ptile rebuilds, final catalogue version %d", rebuilds, led.CatalogVersion)
	}

	// A segment is attempted once per playback slot; it fails if it was
	// retried, degraded or abandoned, if its body was wrong, or if its
	// session failed. A ledger that does not reconcile fails them all.
	out.attempted = int64(played + sessErrs)
	out.failed = int64(retries + abandoned + mismatches + incomplete + sessErrs)
	if !ledgerOK {
		out.failed = out.attempted
	}
	if out.failed > out.attempted {
		out.failed = out.attempted
	}
	out.note("serve.sessions", len(sessions))
	out.note("serve.clients", nproc)
	out.note("edgecache.hit_share", share(float64(dHits), float64(dReq)))
	if rebuild {
		out.note("serve.rebuilds", rebuilds)
	}

	// The window's figures. Latency covers the segments requested inside
	// it. The rates, the latency quantiles and the heap peak are medians
	// over one-second buckets of it, so a few seconds in which the host is
	// slow move them no more than any other second. Session time is the
	// mean over the two videos of each video's median, because a
	// 172-segment and a 201-segment video alternate.
	var lat []float64
	var windowSegs int
	segEnds := make([]time.Time, 0, len(segTimes))
	for _, st := range segTimes {
		if !st.start.Before(windowStart) && st.end.Before(windowEnd) {
			lat = append(lat, millis(st.end.Sub(st.start)))
		}
		if !st.end.Before(windowStart) {
			windowSegs++
		}
		segEnds = append(segEnds, st.end)
	}
	out.note("samples.segment_ms", len(lat))
	out.note("serve.heap_max_mb", heapPeak)
	out.note("serve.window_s", seconds(windowEnd.Sub(windowStart)))
	walls := windowSessionTime(sessions, windowStart, false)
	tracedWalls := windowSessionTime(sessions, windowStart, true)
	if !cfg.trace {
		out.metrics = map[string]float64{
			"setup_s":        quantile(setups, 0.5),
			"wall_s":         walls,
			"events_per_s":   bucketRate(reqEnds, windowStart, windowEnd),
			"segments_per_s": bucketRate(segEnds, windowStart, windowEnd),
			"segment_p50_ms": bucketLatency(segTimes, windowStart, windowEnd, 0.5),
			"segment_p99_ms": bucketLatency(segTimes, windowStart, windowEnd, 0.99),
			"heap_peak_mb":   heap.bucketPeakMB(windowStart, windowEnd),
			"ok_share":       1 - share(float64(out.failed), float64(out.attempted)),
		}
		return out, nil
	}

	m := zeroLayers()
	spans := tr.all()
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var sessionTime, fetchTime time.Duration
	var tracedSegs int
	var hdr, body, transport, hit, miss, chainMs, chainSelf, srvSeg, srvMan []float64
	for _, s := range spans {
		switch s.Name {
		case "client.session":
			sessionTime += s.dur()
		case "client.fetch.segment", "client.fetch.manifest":
			fetchTime += s.dur()
			if s.Name == "client.fetch.segment" {
				tracedSegs++
				hdr = append(hdr, float64(s.Mark-s.Start)/1e6)
				body = append(body, float64(s.End-s.Mark)/1e6)
			}
		case "router.hit", "router.miss":
			if p, ok := byID[s.Parent]; ok {
				transport = append(transport, millis(p.dur()-s.dur()))
			}
			if s.Name == "router.hit" {
				hit = append(hit, millis(s.dur()))
			} else {
				miss = append(miss, millis(s.dur()))
			}
		case "chain":
			chainMs = append(chainMs, millis(s.dur()))
		case "server/segment", "server/manifest":
			if s.Name == "server/segment" {
				srvSeg = append(srvSeg, millis(s.dur()))
			} else {
				srvMan = append(srvMan, millis(s.dur()))
			}
			if p, ok := byID[s.Parent]; ok && p.Name == "chain" {
				chainSelf = append(chainSelf, millis(p.dur()-s.dur()))
			}
		}
	}
	m["client.self_ms_per_segment"] = share(millis(sessionTime-fetchTime), float64(tracedSegs))
	m["client.fetch_headers_ms_p50"] = quantile(hdr, 0.5)
	m["client.fetch_headers_ms_p99"] = quantile(hdr, 0.99)
	m["client.fetch_body_ms_p50"] = quantile(body, 0.5)
	m["client.fetch_body_ms_p99"] = quantile(body, 0.99)
	m["transport.ms_p50"] = quantile(transport, 0.5)
	m["transport.ms_p99"] = quantile(transport, 0.99)
	m["router.hit_ms_p50"] = quantile(hit, 0.5)
	m["router.miss_ms_p50"] = quantile(miss, 0.5)
	m["router.miss_ms_p99"] = quantile(miss, 0.99)
	m["edgecache.hit_share"] = share(float64(dHits), float64(dReq))
	maxShard, meanShard := 0.0, float64(dShard)/float64(len(t.shards))
	for _, s := range t.shards {
		if v := float64(led.PerShard[s.name] - ledBefore.PerShard[s.name]); v > maxShard {
			maxShard = v
		}
	}
	m["router.shard_imbalance"] = share(maxShard, meanShard)
	m["chain.serve_ms_p50"] = quantile(chainMs, 0.5)
	m["chain.serve_ms_p99"] = quantile(chainMs, 0.99)
	m["chain.self_ms_p50"] = quantile(chainSelf, 0.5)
	m["chain.shed"] = float64(chainTotals.Shed)
	m["chain.limited"] = float64(chainTotals.Limited)
	m["chain.broken"] = float64(chainTotals.Broken)
	m["chain.panicked"] = float64(chainTotals.Panicked)
	m["server.segment_ms_p50"] = quantile(srvSeg, 0.5)
	m["server.segment_ms_p99"] = quantile(srvSeg, 0.99)
	m["server.manifest_ms_p50"] = quantile(srvMan, 0.5)
	m["server.bytes_per_segment"] = share(float64(bytes), float64(segs))
	m["client.retries"] = float64(retries)
	m["client.degraded"] = float64(degraded)
	m["client.abandoned"] = float64(abandoned)
	t.rec.mu.Lock()
	m["ptilelive.ingest_us_p50"] = quantile(t.rec.ingest, 0.5)
	m["ptilelive.rebuild_ms_p50"] = quantile(t.rec.rebuild, 0.5)
	m["server.swap_ms"] = quantile(t.rec.swap, 0.5)
	m["router.bump_ms"] = quantile(t.rec.bump, 0.5)
	t.rec.mu.Unlock()
	runtimeLayers(m, before, after, float64(windowSegs), nproc)
	m["trace.overhead_share"] = tracedWalls/walls - 1
	out.metrics = m

	out.note("attribution", attribute(spans, "client.session",
		map[string]string{
			"client.session":        "client (predict, decide, account)",
			"client.fetch.segment":  "transport (HTTP client, loopback TCP, net/http server)",
			"client.fetch.manifest": "transport (HTTP client, loopback TCP, net/http server)",
			"router.hit":            "router and edge cache",
			"router.miss":           "router and edge cache",
			"shard.flight":          "flight middleware",
			"chain":                 "resilience chain",
			"server/segment":        "server handler",
			"server/manifest":       "server handler",
		},
		[]string{"client (predict, decide, account)", "transport (HTTP client, loopback TCP, net/http server)",
			"router and edge cache", "flight middleware", "resilience chain", "server handler"},
		"server-side spans that end after the client has read the body; none expected"))
	out.note("tracing_overhead", map[string]float64{
		"untraced_session_wall_s": walls,
		"traced_session_wall_s":   tracedWalls,
		"delta_wall_s":            tracedWalls - walls,
	})
	path, err := tr.write(cfg.outDir, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	out.note("spans", path)
	return out, nil
}

// windowSessionTime is the mean over the videos of the median time of the
// sessions, traced or untraced, that started inside the window.
func windowSessionTime(sessions []sessionResult, windowStart time.Time, traced bool) float64 {
	byVideo := make(map[int][]float64)
	for _, s := range sessions {
		if s.err == nil && s.traced == traced && !s.start.Before(windowStart) {
			byVideo[s.video] = append(byVideo[s.video], seconds(s.wall))
		}
	}
	var medians []float64
	for _, id := range serveVideos {
		if w := byVideo[id]; len(w) > 0 {
			medians = append(medians, quantile(w, 0.5))
		}
	}
	return mean(medians)
}

// bucketRate is the median, over the whole buckets of [from, to), of the
// events per second that ended in each bucket.
func bucketRate(ends []time.Time, from, to time.Time) float64 {
	counts := make([]float64, bucketCount(from, to))
	for _, e := range ends {
		if b := bucketOf(e, from, to); b >= 0 {
			counts[b]++
		}
	}
	return quantile(counts, 0.5) / bucketWidth(from, to).Seconds()
}

// bucketLatency is the median, over the whole buckets of [from, to), of
// the q-quantile of the latencies, in ms, of the segments requested inside
// the window whose bodies were read in each bucket.
func bucketLatency(segs []segTiming, from, to time.Time, q float64) float64 {
	lat := make([][]float64, bucketCount(from, to))
	for _, st := range segs {
		if b := bucketOf(st.end, from, to); b >= 0 && !st.start.Before(from) {
			lat[b] = append(lat[b], millis(st.end.Sub(st.start)))
		}
	}
	var qs []float64
	for _, l := range lat {
		if len(l) > 0 {
			qs = append(qs, quantile(l, q))
		}
	}
	return quantile(qs, 0.5)
}
