// Command perfbench is the repository benchmark. It runs one workload of the
// reproduction — the paper pipeline, the fleet engine, or the live serving
// tier with and without online Ptile hot swaps — from inputs generated from
// --seed, checks the outputs, and prints one JSON result line last on
// stdout:
//
//	go run . --workload serve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics measured from spans the benchmark records
// around its calls into each layer, and the spans are written as JSONL.
// --workload all runs every workload in a child process and prints a table.
// See README.md for the workloads, metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// holdoutSeed is the workload seed kept back while the benchmark and any
// change measured with it are tuned: a performance claim must also hold on
// it.
const holdoutSeed = 7919

// setupReps is how many times each workload sets up; setup_s is the
// median, since one set-up is short enough for scheduling noise to show.
const setupReps = 9

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics every workload reports, in the
// order of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"segments_per_s", "1/s"},
	{"segment_p50_ms", "ms"},
	{"segment_p99_ms", "ms"},
	{"heap_peak_mb", "MB"},
	{"ok_share", "share"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few seconds of work for the smoke
	// tests; reported numbers are then not comparable with full runs.
	tiny bool
	// outDir receives the span JSONL of traced runs.
	outDir string
	// corrupt deliberately damages the named output ("digest", "ledger",
	// "body") before it is checked, so the tests can prove that a damaged
	// output is counted as failed.
	corrupt string
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int64
	// checks lists every output check with its verdict.
	checks []check
	// metrics holds the end-to-end values (untraced runs) or the per-layer
	// values (traced runs).
	metrics map[string]float64
	// notes carries diagnostics for the record (sample counts, the
	// attribution table, tracing overhead).
	notes map[string]any
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) note(key string, v any) {
	if o.notes == nil {
		o.notes = make(map[string]any)
	}
	o.notes[key] = v
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return len(o.checks) > 0
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"paper":         runPaper,
	"fleet":         runFleet,
	"serve":         func(c config) (*outcome, error) { return runServe(c, false) },
	"serve-rebuild": func(c config) (*outcome, error) { return runServe(c, true) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// record is the run's provenance line, printed before the result.
type record struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	HoldoutSeed int64          `json:"holdout_seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Commit      string         `json:"commit"`
	Checks      []check        `json:"checks"`
	Notes       map[string]any `json:"notes,omitempty"`
}

// commit reports the VCS revision stamped into the binary, with -dirty when
// the tree had uncommitted changes, or "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink every workload for a smoke run")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the span JSONL of traced runs")
	digestFile := fs.String("write-digests", "", "regenerate the paper digests of seeds 0-99 and the hold-out seed into this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *digestFile != "" {
		if err := writeDigests(*digestFile); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if cfg.workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := emit(cfg, out, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// emit prints the provenance record and then the result line.
func emit(cfg config, out *outcome, stdout io.Writer) error {
	names := perLayerNames()
	units := perLayerUnits
	if !cfg.trace {
		names = names[:0]
		units = map[string]string{}
		for _, m := range endToEnd {
			names = append(names, m.name)
			units[m.name] = m.unit
		}
	}
	res := resultJSON{
		Correct:   out.correct(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(names)),
	}
	var missing []string
	for _, n := range names {
		v, ok := out.metrics[n]
		if !ok {
			missing = append(missing, n)
		}
		res.Metrics[n] = metricJSON{Value: v, Unit: units[n]}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s measured no value for %s", cfg.workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	rec := record{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		HoldoutSeed: holdoutSeed,
		Seconds:     cfg.seconds,
		Trace:       cfg.trace,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		Checks:      out.checks,
		Notes:       out.notes,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(res)
}

// deadline returns the end of a measured window of cfg.seconds from now.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
