package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"ptile360/internal/stats"
)

// quantile returns the q-quantile of xs, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// mean returns the mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return share(t, float64(len(xs)))
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// runtimeSample is a point-in-time reading of the process counters the
// runtime.* per-layer metrics are differences of.
type runtimeSample struct {
	at      time.Time
	mallocs uint64
	bytes   uint64
	gcs     uint64
	cpu     time.Duration
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return runtimeSample{
		at:      time.Now(),
		mallocs: s[0].Value.Uint64(),
		bytes:   s[1].Value.Uint64(),
		gcs:     s[2].Value.Uint64(),
		cpu:     cpu,
	}
}

// runtimeLayers fills the runtime.* per-layer metrics for the interval
// [from, to] over ops operations.
func runtimeLayers(m map[string]float64, from, to runtimeSample, ops float64, nproc int) {
	m["runtime.mallocs_per_op"] = share(float64(to.mallocs-from.mallocs), ops)
	m["runtime.alloc_bytes_per_op"] = share(float64(to.bytes-from.bytes), ops)
	m["runtime.gc_cycles"] = float64(to.gcs - from.gcs)
	wall := to.at.Sub(from.at).Seconds()
	m["runtime.cpu_util"] = share(to.cpu.Seconds()-from.cpu.Seconds(), wall*float64(nproc))
}

// heapWatch samples the live heap (bytes marked reachable by the most
// recent GC) every few milliseconds and keeps the peak and the samples. The live heap,
// rather than the instantaneous allocation level, is what the workload
// holds — session state, caches — and does not depend on when the
// sampler happens to run relative to a collection.
type heapWatch struct {
	stop    chan struct{}
	done    sync.WaitGroup
	mu      sync.Mutex
	peak    uint64
	samples []heapSample
}

// heapSample is one reading of the live heap.
type heapSample struct {
	at    time.Time
	bytes uint64
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.samples = append(h.samples, heapSample{at: time.Now(), bytes: v})
	h.mu.Unlock()
}

// finish stops the sampler and returns the peak in MB.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	h.done.Wait()
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// bucketPeakMB returns, in MB, the median over the whole buckets of
// [from, to) of the live-heap peak within each bucket; call it after
// finish. Buckets are as in bucketRate.
func (h *heapWatch) bucketPeakMB(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	peaks := make([]float64, bucketCount(from, to))
	for _, s := range h.samples {
		if b := bucketOf(s.at, from, to); b >= 0 {
			peaks[b] = max(peaks[b], float64(s.bytes)/(1<<20))
		}
	}
	return quantile(peaks, 0.5)
}

// bucketWidth is the length of the buckets [from, to) is cut into: one
// second, or an eighth of a shorter window.
func bucketWidth(from, to time.Time) time.Duration {
	return min(time.Second, to.Sub(from)/8)
}

// bucketCount is the number of whole buckets in [from, to).
func bucketCount(from, to time.Time) int {
	w := bucketWidth(from, to)
	if w <= 0 {
		return 0
	}
	return int(to.Sub(from) / w)
}

// bucketOf returns the whole bucket of [from, to) that t falls in, or -1.
func bucketOf(t, from, to time.Time) int {
	w := bucketWidth(from, to)
	if w <= 0 || t.Before(from) {
		return -1
	}
	if b := int(t.Sub(from) / w); b < bucketCount(from, to) {
		return b
	}
	return -1
}

// liveHeapMB reads the live heap as of the most recent GC, in MB.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
