package main

import (
	"ptile360"
)

// perLayerUnits maps every per-layer metric to its unit. Each traced run
// reports all of them; a layer that the workload does not run reads 0.
// README.md ties each one to the end-to-end metric it should move.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		// paper: the experiment engine and its caches.
		"experiments.setup_hit_share":   "share",
		"experiments.dataset_hit_share": "share",
		"experiments.trace_hit_share":   "share",
		"geom.fovlut_hit_share":         "share",
		// fleet: engine construction, the advance loop, batching, TSDB.
		"fleet.new_s":                  "s",
		"fleet.advance_ms_p50":         "ms",
		"fleet.advance_ms_p99":         "ms",
		"fleet.batch_leaders":          "count",
		"fleet.batch_replays":          "count",
		"fleet.batch_fallbacks":        "count",
		"fleet.replay_share":           "share",
		"obs.tsdb_sample_ms_p50":       "ms",
		"fleet.heap_bytes_per_session": "B",
		// serve: client → transport → router/edge cache → chain → server.
		"client.self_ms_per_segment":  "ms",
		"client.fetch_headers_ms_p50": "ms",
		"client.fetch_headers_ms_p99": "ms",
		"client.fetch_body_ms_p50":    "ms",
		"client.fetch_body_ms_p99":    "ms",
		"transport.ms_p50":            "ms",
		"transport.ms_p99":            "ms",
		"router.hit_ms_p50":           "ms",
		"router.miss_ms_p50":          "ms",
		"router.miss_ms_p99":          "ms",
		"edgecache.hit_share":         "share",
		"router.shard_imbalance":      "ratio",
		"chain.serve_ms_p50":          "ms",
		"chain.serve_ms_p99":          "ms",
		"chain.self_ms_p50":           "ms",
		"chain.shed":                  "count",
		"chain.limited":               "count",
		"chain.broken":                "count",
		"chain.panicked":              "count",
		"server.segment_ms_p50":       "ms",
		"server.segment_ms_p99":       "ms",
		"server.manifest_ms_p50":      "ms",
		"server.bytes_per_segment":    "B",
		"client.retries":              "count",
		"client.degraded":             "count",
		"client.abandoned":            "count",
		// serve-rebuild: the online Ptile pipeline and the hot swap.
		"ptilelive.ingest_us_p50":  "us",
		"ptilelive.rebuild_ms_p50": "ms",
		"server.swap_ms":           "ms",
		"router.bump_ms":           "ms",
		// every workload.
		"runtime.mallocs_per_op":     "count",
		"runtime.alloc_bytes_per_op": "B",
		"runtime.gc_cycles":          "count",
		"runtime.cpu_util":           "share",
		"trace.overhead_share":       "share",
	}
	for _, name := range ptile360.ExperimentNames() {
		u["experiments.exp_s."+name] = "s"
	}
	for _, kind := range fleetKinds {
		u["fleet.events."+kind] = "count"
	}
	return u
}()

// perLayerNames lists the per-layer metrics in a stable order.
func perLayerNames() []string {
	return sortedKeys(perLayerUnits)
}

// zeroLayers returns a per-layer metric map with every metric at 0, for a
// workload to fill in the layers it runs.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayerUnits))
	for n := range perLayerUnits {
		m[n] = 0
	}
	return m
}
