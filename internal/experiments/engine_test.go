package experiments

import (
	"reflect"
	"testing"

	"ptile360/internal/power"
)

// withWorkers runs fn under the given worker-pool cap with cold caches, so
// every build actually executes at that parallelism, and restores the
// previous cap afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := SetMaxWorkers(n)
	ResetCaches()
	defer func() {
		SetMaxWorkers(prev)
		ResetCaches()
	}()
	fn()
}

// TestRunComparisonWorkersDeterministic proves the flattened session pool is
// a pure reordering of the serial sweep: the full Comparison — every cell,
// every float — is byte-identical whether the sessions run one at a time or
// on a wide pool.
func TestRunComparisonWorkersDeterministic(t *testing.T) {
	scale := QuickScale()
	var serial, wide *Comparison
	withWorkers(t, 1, func() {
		var err error
		serial, err = RunComparison(power.Nexus5X, scale)
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, workers := range []int{0, 8} {
		withWorkers(t, workers, func() {
			var err error
			wide, err = RunComparison(power.Nexus5X, scale)
			if err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(serial, wide) {
			t.Fatalf("workers=%d: comparison differs from serial run", workers)
		}
	}
}

// TestFigureHarnessesWorkersDeterministic repeats the worker sweep for the
// Fig. 5/7/8 harnesses, which share the memoized setups with the
// comparisons.
func TestFigureHarnessesWorkersDeterministic(t *testing.T) {
	scale := QuickScale()
	type outputs struct {
		f5 *Fig5Result
		f7 *Fig7Result
		f8 *Fig8Result
	}
	run := func() outputs {
		f5, err := Fig5(scale)
		if err != nil {
			t.Fatal(err)
		}
		f7, err := Fig7(scale)
		if err != nil {
			t.Fatal(err)
		}
		f8, err := Fig8(scale)
		if err != nil {
			t.Fatal(err)
		}
		return outputs{f5: f5, f7: f7, f8: f8}
	}
	var serial, wide outputs
	withWorkers(t, 1, func() { serial = run() })
	withWorkers(t, 8, func() { wide = run() })
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("figure outputs differ between worker counts")
	}
	// The rendered tables are what cmd/repro prints; they must match too.
	if !reflect.DeepEqual(serial.f5.Render(), wide.f5.Render()) ||
		!reflect.DeepEqual(serial.f7.Render(), wide.f7.Render()) ||
		!reflect.DeepEqual(serial.f8.Render(), wide.f8.Render()) {
		t.Fatal("rendered tables differ between worker counts")
	}
}

// TestNetemAblationsWorkersDeterministic repeats the worker sweep for the
// two flattened session sweeps: NetemFig over all three default profiles
// and Ablations must give identical results and rendered tables on one
// worker and on a wide pool.
func TestNetemAblationsWorkersDeterministic(t *testing.T) {
	scale := QuickScale()
	if err := SetNetemProfile(""); err != nil {
		t.Fatal(err)
	}
	type outputs struct {
		netem *NetemResult
		abl   *AblationsResult
	}
	run := func() outputs {
		nf, err := NetemFig(8, scale)
		if err != nil {
			t.Fatal(err)
		}
		abl, err := Ablations(scale)
		if err != nil {
			t.Fatal(err)
		}
		return outputs{netem: nf, abl: abl}
	}
	var serial, wide outputs
	withWorkers(t, 1, func() { serial = run() })
	withWorkers(t, 8, func() { wide = run() })
	if got := len(serial.netem.Rows); got != 3*2*2 {
		t.Fatalf("netem rows = %d, want 12 (3 profiles x 2 estimators x 2 models)", got)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("netem/ablation outputs differ between worker counts")
	}
	if !reflect.DeepEqual(serial.netem.Render(), wide.netem.Render()) ||
		!reflect.DeepEqual(serial.abl.Render(), wide.abl.Render()) {
		t.Fatal("rendered tables differ between worker counts")
	}
}

// TestSetupCacheSingleExecution proves the cache-hit accounting: a sweep
// touching the same scale from several harnesses builds each distinct
// (video, scale) setup and each trace pair exactly once.
func TestSetupCacheSingleExecution(t *testing.T) {
	scale := QuickScale()
	withWorkers(t, 0, func() {
		if _, err := RunComparison(power.Nexus5X, scale); err != nil {
			t.Fatal(err)
		}
		s := Stats()
		if s.SetupMisses != len(scale.Videos) {
			t.Fatalf("first sweep: %d setup builds, want %d", s.SetupMisses, len(scale.Videos))
		}
		if s.TraceMisses != 1 {
			t.Fatalf("first sweep: %d trace builds, want 1", s.TraceMisses)
		}

		// A second comparison on another phone and the figure harnesses
		// re-request the same setups: zero further builds.
		if _, err := RunComparison(power.GalaxyS20, scale); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig7(scale); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig8(scale); err != nil {
			t.Fatal(err)
		}
		s = Stats()
		if s.SetupMisses != len(scale.Videos) {
			t.Fatalf("after shared sweeps: %d setup builds, want %d (hits %d)",
				s.SetupMisses, len(scale.Videos), s.SetupHits)
		}
		if s.SetupHits == 0 {
			t.Fatal("shared sweeps produced no cache hits")
		}

		// A different seed is a different key and must rebuild.
		shifted := scale
		shifted.Seed++
		if _, err := Fig7(shifted); err != nil {
			t.Fatal(err)
		}
		if got := Stats().SetupMisses; got <= s.SetupMisses {
			t.Fatalf("shifted seed did not rebuild: %d builds", got)
		}
	})
}

// TestDatasetCacheSharedAcrossHarnesses proves Fig. 5 and the per-video
// setup builds share one head-trace generation per (video, users, seed),
// and that the LUT counters surface through Stats.
func TestDatasetCacheSharedAcrossHarnesses(t *testing.T) {
	scale := QuickScale()
	withWorkers(t, 0, func() {
		if _, err := Fig5(scale); err != nil {
			t.Fatal(err)
		}
		s := Stats()
		if s.DatasetMisses != len(scale.Videos) {
			t.Fatalf("Fig5: %d dataset builds, want %d", s.DatasetMisses, len(scale.Videos))
		}
		// The setup builds re-request the same datasets: zero further
		// generations.
		if _, err := RunComparison(power.Nexus5X, scale); err != nil {
			t.Fatal(err)
		}
		s = Stats()
		if s.DatasetMisses != len(scale.Videos) {
			t.Fatalf("after comparison: %d dataset builds, want %d (hits %d)",
				s.DatasetMisses, len(scale.Videos), s.DatasetHits)
		}
		if s.DatasetHits < len(scale.Videos) {
			t.Fatalf("setup builds produced %d dataset hits, want >= %d", s.DatasetHits, len(scale.Videos))
		}
		// The comparison's sessions warm the FoV-coverage LUT; repeated
		// sessions share the per-(grid, FoV) build.
		if s.FoVLUTMisses == 0 {
			t.Fatal("comparison built no FoV LUT")
		}
		if s.FoVLUTHits == 0 {
			t.Fatal("repeated sessions produced no FoV-LUT hits")
		}
	})
}

// TestResetCachesZeroes checks the reset used between benchmark runs.
func TestResetCachesZeroes(t *testing.T) {
	scale := QuickScale()
	withWorkers(t, 0, func() {
		if _, err := Fig7(scale); err != nil {
			t.Fatal(err)
		}
		if s := Stats(); s.SetupMisses == 0 {
			t.Fatal("no builds recorded")
		}
		ResetCaches()
		if s := Stats(); s != (CacheStats{}) {
			t.Fatalf("stats not zeroed: %+v", s)
		}
	})
}
