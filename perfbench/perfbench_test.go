package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the tests
// hold the benchmark to.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// smoke runs one workload at tiny size and returns its parsed output.
func smoke(t *testing.T, workload string, trace bool, corrupt string) (record, resultJSON) {
	t.Helper()
	cfg := config{workload: workload, seed: 3, seconds: 0.2, trace: trace, tiny: true,
		outDir: t.TempDir(), corrupt: corrupt}
	out, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if err := emit(cfg, out, &buf); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	rec, res, err := parseRun(buf.Bytes())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rec, res
}

// TestSmokeEveryWorkload runs every workload untraced and traced, and
// requires every metric BENCHMARK.json names, with its unit, passing checks
// and no failed operation.
func TestSmokeEveryWorkload(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rec, res := smoke(t, name, trace, "")
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%+v",
					name, trace, res.Correct, res.Attempted, res.Failed, rec.Checks)
			}
			if rec.NProc < 1 || rec.GOMAXPROCS < 1 || rec.GoVersion == "" || rec.Commit == "" || rec.HoldoutSeed == 0 {
				t.Errorf("%s: incomplete provenance record %+v", name, rec)
			}
			if !trace && res.Metrics["ok_share"].Value != 1 {
				t.Errorf("%s: ok_share %v in a clean run", name, res.Metrics["ok_share"].Value)
			}
		}
	}
}

// TestCorruptedOutputFails damages each workload's checked output and
// requires the run to report it as failed, not passed.
func TestCorruptedOutputFails(t *testing.T) {
	for _, tc := range []struct{ workload, corrupt string }{
		{"paper", "digest"},
		{"fleet", "ledger"},
		{"serve", "ledger"},
		{"serve", "body"},
		{"serve-rebuild", "ledger"},
	} {
		_, res := smoke(t, tc.workload, false, tc.corrupt)
		if res.Correct || res.Failed == 0 || res.Metrics["ok_share"].Value >= 1 {
			t.Errorf("%s with a corrupted %s: correct=%v failed=%d ok_share=%v, want it counted as failed",
				tc.workload, tc.corrupt, res.Correct, res.Failed, res.Metrics["ok_share"].Value)
		}
	}
}

// TestDigestsCoverHoldoutSeed keeps the hold-out seed checkable.
func TestDigestsCoverHoldoutSeed(t *testing.T) {
	d, err := paperDigests()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d[holdoutSeed]; !ok || len(d) < 2 {
		t.Fatalf("paper digests cover %d seeds, hold-out seed %d present: %v", len(d), holdoutSeed, ok)
	}
}
