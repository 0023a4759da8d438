package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"ptile360"
	"ptile360/internal/experiments"
)

// paperDigests maps a workload seed to the digest of every table the
// quick-scale paper run produces with that seed. Regenerate it with
// --write-digests after a change that is meant to alter the paper's output,
// and review the change of every figure it reflects.
//
//go:embed paper_digests.json
var paperDigestsJSON []byte

func paperDigests() (map[int64]string, error) {
	var raw map[string]string
	if err := json.Unmarshal(paperDigestsJSON, &raw); err != nil {
		return nil, fmt.Errorf("paper digests: %w", err)
	}
	out := make(map[int64]string, len(raw))
	for k, v := range raw {
		seed, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("paper digests: seed %q: %w", k, err)
		}
		out[seed] = v
	}
	return out, nil
}

// paperScale is the quick scale with the workload seed; tiny drops to one
// video and a handful of users for the smoke tests.
func paperScale(cfg config) ptile360.Scale {
	s := ptile360.QuickScale()
	s.Seed = cfg.seed
	if cfg.tiny {
		s.Videos = []int{2}
		s.UsersPerVideo, s.TrainUsers, s.EvalUsers = 8, 6, 2
		s.TraceSamples = 120
	}
	return s
}

// digestTables hashes the tables in order: titles, headers and cells, each
// length-prefixed so no two outputs share an encoding.
func digestTables(tables []ptile360.Table) string {
	h := sha256.New()
	put := func(s string) {
		fmt.Fprintf(h, "%d:%s", len(s), s)
	}
	for _, t := range tables {
		put(t.Title)
		put(strconv.Itoa(len(t.Columns)))
		for _, c := range t.Columns {
			put(c)
		}
		put(strconv.Itoa(len(t.Rows)))
		for _, r := range t.Rows {
			put(strconv.Itoa(len(r)))
			for _, c := range r {
				put(c)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// paperRep is one regeneration of every table.
type paperRep struct {
	wall    time.Duration
	perExp  []time.Duration
	rows    int
	digest  string
	failed  int
	traced  bool
	stats   experiments.CacheStats
	errText string
}

// regenerate runs every experiment, caches already dropped, in the order
// RunExperiment("all") uses — one RunExperiment call per name, which is
// what "all" does — timing each call. With a tracer it records one span per
// experiment under a root span.
func regenerate(scale ptile360.Scale, names []string, tr *tracer) paperRep {
	var rep paperRep
	rep.traced = tr != nil
	root, trace := tr.newID(), tr.newID()
	start := time.Now()
	var tables []ptile360.Table
	for _, name := range names {
		t := time.Now()
		out, err := ptile360.RunExperiment(name, scale)
		now := time.Now()
		tr.add("experiment."+name, tr.newID(), root, trace, t, now)
		rep.perExp = append(rep.perExp, now.Sub(t))
		if err != nil {
			rep.failed++
			rep.errText = err.Error()
			continue
		}
		tables = append(tables, out...)
	}
	rep.stats = experiments.Stats()
	t := time.Now()
	rep.digest = digestTables(tables)
	for _, tb := range tables {
		rep.rows += len(tb.Rows)
	}
	now := time.Now()
	tr.add("digest", tr.newID(), root, trace, t, now)
	rep.wall = now.Sub(start)
	tr.add("paper.regenerate", root, 0, trace, start, now)
	return rep
}

func runPaper(cfg config) (*outcome, error) {
	scale := paperScale(cfg)
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	names := ptile360.ExperimentNames()
	out := &outcome{}

	// Set-up: the per-video fixtures and catalogues the paper's figures
	// stand on, built through the public façade, repeated setupReps times.
	var setups []float64
	opts := ptile360.Options{UsersPerVideo: scale.UsersPerVideo, TrainUsers: scale.TrainUsers,
		TraceSamples: scale.TraceSamples, Seed: scale.Seed}
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		sys, err := ptile360.NewSystem(opts)
		if err != nil {
			return nil, err
		}
		for _, v := range scale.Videos {
			if _, err := sys.PrepareVideo(v); err != nil {
				return nil, err
			}
		}
		setups = append(setups, seconds(time.Since(t)))
	}
	runtime.GC()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Untraced runs regenerate back to back until the window closes; traced
	// runs alternate untraced and traced regenerations so the difference is
	// the tracing overhead. At least two regenerations always run, so the
	// output is compared across them.
	var reps []paperRep
	end := deadline(cfg)
	heap := startHeapWatch()
	before := readRuntime()
	for len(reps) < 2 || time.Now().Before(end) {
		var rt *tracer
		if cfg.trace && len(reps)%2 == 1 {
			rt = tr
		}
		// Caches are dropped and collected before the clock starts, which
		// puts every regeneration's collections at the same points of its
		// allocation sequence: a collection cannot fall inside a 1 ms
		// experiment in one run and outside it in the next.
		experiments.ResetCaches()
		runtime.GC()
		reps = append(reps, regenerate(scale, names, rt))
	}
	after := readRuntime()
	heapPeak := heap.finish()

	// Output check: every regeneration's digest must equal the digest
	// shipped for this seed; for a seed without one, all regenerations
	// must agree with the first.
	digests, err := paperDigests()
	if err != nil {
		return nil, err
	}
	want, shipped := digests[cfg.seed]
	if cfg.tiny || !shipped {
		want, shipped = reps[0].digest, false
	}
	if cfg.corrupt == "digest" {
		last := &reps[len(reps)-1]
		last.digest = "corrupt-" + last.digest
	}
	mismatched := 0
	for i := range reps {
		r := &reps[i]
		out.attempted += int64(len(names))
		switch {
		case r.failed > 0:
			out.failed += int64(r.failed)
			out.check(fmt.Sprintf("paper.rep%d.experiments", i), false, "%d experiments failed: %s", r.failed, r.errText)
		case r.digest != want:
			// A wrong table fails the whole regeneration.
			out.failed += int64(len(names))
			mismatched++
		}
	}
	source := "shipped digest for this seed"
	if !shipped {
		source = "no shipped digest for this seed: regenerations compared with the first"
	}
	out.check("paper.digest", mismatched == 0, "%d of %d regenerations differ (%s)", mismatched, len(reps), source)
	out.note("paper.digest", reps[0].digest)
	out.note("paper.regenerations", len(reps))

	var walls []float64
	var expCount, rows int
	var total time.Duration
	for _, r := range reps {
		if r.traced {
			continue
		}
		walls = append(walls, seconds(r.wall))
		total += r.wall
		expCount += len(r.perExp)
		rows += r.rows
	}
	if !cfg.trace {
		// The latency a user of the paper pipeline waits on is one
		// regeneration (RunExperiment("all") is one call). Single
		// experiments are no steadier op: their times span five orders of
		// magnitude, so any quantile over them is one experiment's time,
		// and the median one takes about a millisecond.
		var perRep []float64
		for _, w := range walls {
			perRep = append(perRep, w*1e3)
		}
		out.metrics = map[string]float64{
			"setup_s":        quantile(setups, 0.5),
			"wall_s":         quantile(walls, 0.5),
			"events_per_s":   float64(expCount) / total.Seconds(),
			"segments_per_s": float64(rows) / total.Seconds(),
			"segment_p50_ms": quantile(perRep, 0.5),
			"segment_p99_ms": quantile(perRep, 0.99),
			"heap_peak_mb":   heapPeak,
			"ok_share":       1 - share(float64(out.failed), float64(out.attempted)),
		}
		out.note("samples.segment_ms", len(perRep))
		return out, nil
	}

	m := zeroLayers()
	for name, sec := range experimentMedians(reps, names) {
		m["experiments.exp_s."+name] = sec
	}
	var tracedWalls []float64
	var last paperRep
	for _, r := range reps {
		if r.traced {
			tracedWalls = append(tracedWalls, seconds(r.wall))
			last = r
		}
	}
	st := last.stats
	m["experiments.setup_hit_share"] = share(float64(st.SetupHits), float64(st.SetupHits+st.SetupMisses))
	m["experiments.dataset_hit_share"] = share(float64(st.DatasetHits), float64(st.DatasetHits+st.DatasetMisses))
	m["experiments.trace_hit_share"] = share(float64(st.TraceHits), float64(st.TraceHits+st.TraceMisses))
	m["geom.fovlut_hit_share"] = share(float64(st.FoVLUTHits), float64(st.FoVLUTHits+st.FoVLUTMisses))
	runtimeLayers(m, before, after, float64(len(reps)*len(names)), runtime.NumCPU())
	m["trace.overhead_share"] = quantile(tracedWalls, 0.5)/quantile(walls, 0.5) - 1
	out.metrics = m

	layers := map[string]string{"digest": "benchmark.digest"}
	var order []string
	for _, n := range names {
		layers["experiment."+n] = "experiments.exp." + n
		order = append(order, "experiments.exp."+n)
	}
	order = append(order, "benchmark.digest")
	out.note("attribution", attribute(tr.all(), "paper.regenerate", layers, order,
		"the regeneration's own time between the timed calls"))
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

// experimentMedians returns each experiment's median time in seconds over
// the traced regenerations.
func experimentMedians(reps []paperRep, names []string) map[string]float64 {
	per := make(map[string][]float64, len(names))
	for _, r := range reps {
		if !r.traced {
			continue
		}
		for i, d := range r.perExp {
			per[names[i]] = append(per[names[i]], seconds(d))
		}
	}
	out := make(map[string]float64, len(per))
	for name, xs := range per {
		out[name] = quantile(xs, 0.5)
	}
	return out
}

// writeDigests records the digest of RunExperiment("all") at quick scale
// for seeds 0-99 and the hold-out seed.
func writeDigests(path string) error {
	const n = 100
	seeds := make([]int64, 0, n+1)
	for s := int64(0); s < n; s++ {
		seeds = append(seeds, s)
	}
	seeds = append(seeds, holdoutSeed)
	out := make(map[string]string, len(seeds))
	for _, seed := range seeds {
		scale := paperScale(config{seed: seed})
		experiments.ResetCaches()
		tables, err := ptile360.RunExperiment("all", scale)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		out[strconv.FormatInt(seed, 10)] = digestTables(tables)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
