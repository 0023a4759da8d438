package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"ptile360/internal/fleet"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// fleetKinds names the engine's event kinds as the ledger counts them.
var fleetKinds = func() []string {
	var ks []string
	for k := fleet.KindJoin; k <= fleet.KindLeave; k++ {
		ks = append(ks, k.String())
	}
	return ks
}()

// fleetSessions is the population of one fleet run: large enough that the
// join storm is a small part of it, small enough that several populations
// drain inside one measured window, so the reported figures are medians.
const fleetSessions = 10_000

// fleetFixtures is how many fixtures, each generated from its own sub-seed
// of the workload seed, one run's populations cycle through. A fixture has
// only three evaluation viewers, so the viewers a single seed draws move a
// population's cost by several per cent; cycling four fixtures averages
// that out of each run's figures.
const fleetFixtures = 4

// fleetSubSeed is the seed of fixture j of a run with the given workload
// seed. Different workload seeds get disjoint sub-seeds.
func fleetSubSeed(seed int64, j int) int64 { return seed*fleetFixtures + int64(j) }

// fleetFixture is cmd/fleet's default population: video 2, 14 generated
// viewers (sessions cycle the evaluation pool), one walking LTE trace, and
// the Ptile scheme on a Pixel 3.
type fleetFixture struct {
	cat  *sim.Catalog
	eval []*headtrace.Trace
	net  *lte.Trace
	cfg  sim.Config
}

func buildFleetFixture(seed int64) (*fleetFixture, error) {
	p, err := video.ProfileByID(2)
	if err != nil {
		return nil, err
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 14
	ds, err := headtrace.Generate(p, gcfg, seed)
	if err != nil {
		return nil, err
	}
	train, eval, err := ds.SplitTrainEval(14*5/6, seed+1)
	if err != nil {
		return nil, err
	}
	ccfg, err := sim.DefaultCatalogConfig()
	if err != nil {
		return nil, err
	}
	ccfg.Seed = seed
	cat, err := sim.BuildCatalog(p, train, ccfg)
	if err != nil {
		return nil, err
	}
	ncfg, err := lte.ProfileConfig(lte.ProfileWalking)
	if err != nil {
		return nil, err
	}
	net, err := lte.Generate(600, ncfg, seed)
	if err != nil {
		return nil, err
	}
	cfg, err := sim.DefaultConfig(sim.SchemePtile, power.Pixel3)
	if err != nil {
		return nil, err
	}
	return &fleetFixture{cat: cat, eval: eval, net: net, cfg: cfg}, nil
}

// observedFleet is one engine in the observed configuration of
// BenchmarkFleetTickObserved: a registry, a TSDB sampled once per virtual
// second with a quotient SLO evaluated on every sample, and a 1-in-64
// flight recorder.
type observedFleet struct {
	eng   *fleet.Engine
	db    *obs.TSDB
	specs []fleet.SessionSpec
}

func newObservedFleet(fx *fleetFixture, sessions int) (*observedFleet, error) {
	specs := make([]fleet.SessionSpec, sessions)
	for i := range specs {
		specs[i] = fleet.SessionSpec{User: fx.eval[i%len(fx.eval)], Net: fx.net, JoinSec: 0.25 * float64(i%13)}
	}
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 64, Registry: reg})
	db := obs.NewTSDB(reg, obs.TSDBConfig{Resolutions: []obs.Resolution{
		{Step: time.Second, Slots: 120},
		{Step: 10 * time.Second, Slots: 90},
	}})
	if _, err := obs.NewSLOEngine(db, reg, []obs.Objective{{
		Name:    "stall",
		Kind:    obs.SLOQuotient,
		Num:     []obs.Selector{obs.Sel("fleet_stall_seconds_total")},
		Den:     []obs.Selector{obs.Sel("fleet_segments_total")},
		Budget:  0.05,
		Windows: obs.BurnWindows(time.Second),
	}}); err != nil {
		return nil, err
	}
	// Shard count as cmd/fleet sizes it for this population.
	shards := runtime.GOMAXPROCS(0)
	if s := sessions / 16384; s > shards {
		shards = min(s, 4*shards)
	}
	eng, err := fleet.New(fleet.Config{
		Catalog:           fx.cat,
		Sim:               fx.cfg,
		Shards:            shards,
		ViewportUpdateSec: 0.5,
		Registry:          reg,
		Flight:            flight,
	}, specs)
	if err != nil {
		return nil, err
	}
	return &observedFleet{eng: eng, db: db, specs: specs}, nil
}

// fleetRun is one population driven from first join to drain.
type fleetRun struct {
	wall     time.Duration
	advances []time.Duration
	samples  []time.Duration
	ledger   fleet.Ledger
	traced   bool
	baseMB   float64 // live heap before the engine was built (0: not read)
	endMB    float64 // live heap after a collection at the drain's end
	bad      int     // sessions whose output check failed
	checks   []check
}

// drain advances the engine one virtual second at a time until every
// session has left, sampling the TSDB after each step.
func drain(of *observedFleet, tr *tracer, run *fleetRun) error {
	root, trace := tr.newID(), tr.newID()
	epoch := time.Now()
	start := epoch
	horizon := 0.0
	for {
		if _, ok := of.eng.NextEventTime(); !ok {
			break
		}
		horizon++
		t := time.Now()
		if err := of.eng.Advance(horizon); err != nil {
			return err
		}
		mid := time.Now()
		of.db.Sample(epoch.Add(time.Duration(horizon * float64(time.Second))))
		end := time.Now()
		run.advances = append(run.advances, mid.Sub(t))
		run.samples = append(run.samples, end.Sub(mid))
		tr.add("fleet.advance", tr.newID(), root, trace, t, mid)
		tr.add("obs.tsdb_sample", tr.newID(), root, trace, mid, end)
	}
	now := time.Now()
	run.wall = now.Sub(start)
	tr.add("fleet.drain", root, 0, trace, start, now)
	return nil
}

// sameBits reports whether a and b are equal with every float compared by
// its bit pattern.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !sameBits(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// checkFleet compares a seeded sample of sessions with sim.Run on the same
// inputs and reconciles the ledger with the per-session references.
func checkFleet(of *observedFleet, refs map[*headtrace.Trace]*sim.Result, rng *rand.Rand, corrupt bool, run *fleetRun) {
	led := of.eng.Ledger()
	if corrupt {
		led.Segments++
	}
	run.ledger = led
	n := len(of.specs)
	results := of.eng.Results()
	const sample = 32
	mismatch := 0
	for i := 0; i < sample; i++ {
		s := rng.Intn(n)
		want := refs[of.specs[s].User]
		if got := results[s]; got == nil || !sameBits(reflect.ValueOf(*got), reflect.ValueOf(*want)) {
			mismatch++
		}
	}
	run.checks = append(run.checks, check{Name: "fleet.results_match_sim", OK: mismatch == 0,
		Detail: fmt.Sprintf("%d of %d sampled sessions differ from sim.Run", mismatch, sample)})
	run.bad += mismatch

	wantSegs, wantStall := 0, 0.0
	for _, sp := range of.specs {
		wantSegs += refs[sp.User].Segments
		wantStall += refs[sp.User].QoE.StallSec
	}
	kinds := 0
	for _, k := range led.EventsByKind {
		kinds += k
	}
	var problems []string
	if led.Joined != n || led.Finished != n || led.Active != 0 {
		problems = append(problems, fmt.Sprintf("joined %d finished %d active %d of %d", led.Joined, led.Finished, led.Active, n))
	}
	if led.Segments != wantSegs || led.EventsByKind[fleet.KindSegmentComplete] != wantSegs {
		problems = append(problems, fmt.Sprintf("segments %d (events %d), references streamed %d",
			led.Segments, led.EventsByKind[fleet.KindSegmentComplete], wantSegs))
	}
	if led.EventsByKind[fleet.KindJoin] != n || led.EventsByKind[fleet.KindLeave] != n || kinds != led.Events {
		problems = append(problems, fmt.Sprintf("events %d, by kind %v", led.Events, led.EventsByKind))
	}
	if steps := led.BatchLeaders + led.BatchReplays + led.BatchFallbacks; steps != led.Segments {
		problems = append(problems, fmt.Sprintf("batch steps %d != segments %d", steps, led.Segments))
	}
	if math.Abs(led.StallSec-wantStall) > 1e-9*(1+wantStall) {
		problems = append(problems, fmt.Sprintf("stall %g s, references %g s", led.StallSec, wantStall))
	}
	run.checks = append(run.checks, check{Name: "fleet.ledger_reconciles", OK: len(problems) == 0, Detail: fmt.Sprint(problems)})
	if len(problems) > 0 {
		// A ledger that does not reconcile fails every session it covers.
		run.bad = n
	}
}

func runFleet(cfg config) (*outcome, error) {
	sessions := fleetSessions
	if cfg.tiny {
		sessions = 200
	}
	out := &outcome{}

	// Set-up, repeated setupReps times: every fixture's generation, the
	// first engine's construction and its observability stack. The last
	// engine runs first.
	var setups []float64
	var fxs []*fleetFixture
	var of *observedFleet
	var newTimes []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		fxs = fxs[:0]
		for j := 0; j < fleetFixtures; j++ {
			fx, err := buildFleetFixture(fleetSubSeed(cfg.seed, j))
			if err != nil {
				return nil, err
			}
			fxs = append(fxs, fx)
		}
		mid := time.Now()
		var err error
		if of, err = newObservedFleet(fxs[0], sessions); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t)))
		newTimes = append(newTimes, seconds(time.Since(mid)))
	}
	refs := make(map[*headtrace.Trace]*sim.Result)
	for _, fx := range fxs {
		for _, u := range fx.eval {
			ref, err := sim.Run(fx.cat, u, fx.net, fx.cfg)
			if err != nil {
				return nil, err
			}
			refs[u] = ref
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// A traced run pairs each untraced population with a traced one of the
	// same fixture, so the tracing overhead compares like with like.
	fixtureOf := func(i int) int {
		if cfg.trace {
			i /= 2
		}
		return i % fleetFixtures
	}
	// One untimed population first, so the timed ones all start from a
	// process that has already drained one.
	var runs []fleetRun
	var events int
	var heap *heapWatch
	var before runtimeSample
	var end time.Time
	for i := -1; len(runs) < 2*fleetFixtures || time.Now().Before(end); i++ {
		if i == 0 {
			end = deadline(cfg)
			heap = startHeapWatch()
			before = readRuntime()
		}
		run := fleetRun{traced: i >= 0 && cfg.trace && i%2 == 1}
		fx := fxs[0]
		if i >= 0 {
			fx = fxs[fixtureOf(i)]
		}
		if of == nil {
			runtime.GC()
			run.baseMB = liveHeapMB()
			t := time.Now()
			var err error
			if of, err = newObservedFleet(fx, sessions); err != nil {
				return nil, err
			}
			newTimes = append(newTimes, seconds(time.Since(t)))
		}
		var rt *tracer
		if run.traced {
			rt = tr
		}
		// Collect before the clock starts so each population's collections
		// fall at the same points of its allocation sequence.
		runtime.GC()
		if err := drain(of, rt, &run); err != nil {
			return nil, err
		}
		// The heap the population holds at its end, every session's state
		// and result, read after a collection so that it does not depend on
		// when the last one happened to run.
		runtime.GC()
		run.endMB = liveHeapMB()
		checkFleet(of, refs, rng, cfg.corrupt == "ledger" && i == 1, &run)
		of = nil
		out.attempted += int64(sessions)
		out.failed += int64(run.bad)
		for _, c := range run.checks {
			if !c.OK {
				out.checks = append(out.checks, c)
			}
		}
		if i < 0 {
			continue
		}
		events += run.ledger.Events
		runs = append(runs, run)
	}
	after := readRuntime()
	out.note("fleet.heap_max_mb", heap.finish())

	if len(out.checks) == 0 {
		out.check("fleet.results_match_sim", true, "%d populations of %d fixtures, 32 sampled sessions each, bit-identical to sim.Run", len(runs)+1, fleetFixtures)
		out.check("fleet.ledger_reconciles", true, "%d populations", len(runs)+1)
	}
	out.note("fleet.sessions", sessions)
	out.note("fleet.fixtures", fleetFixtures)
	out.note("fleet.populations", len(runs))

	// Rates and tick quantiles are medians over populations, like the job
	// time: a population slowed by the host for a while moves them no more
	// than any other.
	var walls, evRates, segRates, tickP50, tickP99, endMB []float64
	var ticks int
	for _, r := range runs {
		if r.traced {
			continue
		}
		walls = append(walls, seconds(r.wall))
		endMB = append(endMB, r.endMB)
		evRates = append(evRates, float64(r.ledger.Events)/r.wall.Seconds())
		segRates = append(segRates, float64(r.ledger.Segments)/r.wall.Seconds())
		tick := make([]float64, len(r.advances))
		for i := range r.advances {
			tick[i] = millis(r.advances[i] + r.samples[i])
		}
		tickP50 = append(tickP50, quantile(tick, 0.5))
		tickP99 = append(tickP99, quantile(tick, 0.99))
		ticks += len(tick)
	}
	if !cfg.trace {
		out.metrics = map[string]float64{
			"setup_s":        quantile(setups, 0.5),
			"wall_s":         quantile(walls, 0.5),
			"events_per_s":   quantile(evRates, 0.5),
			"segments_per_s": quantile(segRates, 0.5),
			"segment_p50_ms": quantile(tickP50, 0.5),
			"segment_p99_ms": quantile(tickP99, 0.5),
			"heap_peak_mb":   quantile(endMB, 0.5),
			"ok_share":       1 - share(float64(out.failed), float64(out.attempted)),
		}
		out.note("samples.tick_ms", ticks)
		return out, nil
	}

	m := zeroLayers()
	var tracedWalls, adv, smp, perSession []float64
	var first *fleetRun
	for i, r := range runs {
		if !r.traced {
			continue
		}
		tracedWalls = append(tracedWalls, seconds(r.wall))
		for i := range r.advances {
			adv = append(adv, millis(r.advances[i]))
			smp = append(smp, millis(r.samples[i]))
		}
		if r.baseMB > 0 {
			perSession = append(perSession, (r.endMB-r.baseMB)*(1<<20)/float64(sessions))
		}
		if first == nil {
			first = &runs[i]
		}
	}
	m["fleet.new_s"] = quantile(newTimes, 0.5)
	m["fleet.advance_ms_p50"] = quantile(adv, 0.5)
	m["fleet.advance_ms_p99"] = quantile(adv, 0.99)
	m["obs.tsdb_sample_ms_p50"] = quantile(smp, 0.5)
	led := first.ledger
	for k, name := range fleetKinds {
		m["fleet.events."+name] = float64(led.EventsByKind[k])
	}
	m["fleet.batch_leaders"] = float64(led.BatchLeaders)
	m["fleet.batch_replays"] = float64(led.BatchReplays)
	m["fleet.batch_fallbacks"] = float64(led.BatchFallbacks)
	m["fleet.replay_share"] = share(float64(led.BatchReplays), float64(led.BatchLeaders+led.BatchReplays+led.BatchFallbacks))
	m["fleet.heap_bytes_per_session"] = quantile(perSession, 0.5)
	runtimeLayers(m, before, after, float64(events), runtime.NumCPU())
	m["trace.overhead_share"] = quantile(tracedWalls, 0.5)/quantile(walls, 0.5) - 1
	out.metrics = m

	out.note("attribution", attribute(tr.all(), "fleet.drain",
		map[string]string{"fleet.advance": "fleet.advance", "obs.tsdb_sample": "obs.tsdb_sample", "fleet.drain": "benchmark.loop"},
		[]string{"fleet.advance", "obs.tsdb_sample", "benchmark.loop"},
		"none: the drain loop's own time is a row (benchmark.loop)"))
	out.note("tracing_overhead", map[string]float64{
		"untraced_wall_s": quantile(walls, 0.5),
		"traced_wall_s":   quantile(tracedWalls, 0.5),
		"delta_wall_s":    quantile(tracedWalls, 0.5) - quantile(walls, 0.5),
	})
	path, err := tr.write(cfg.outDir, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	out.note("spans", path)
	return out, nil
}
