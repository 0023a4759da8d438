package httpstream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"testing"

	"ptile360/internal/faultinject"
	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/sim"
)

// streamOverTransport runs one full client session against the shared
// harness server, optionally through a custom transport.
func streamOverTransport(t *testing.T, rt http.RoundTripper, baseURL string) *SessionReport {
	t.Helper()
	client, err := NewClient(ClientConfig{
		BaseURL:     baseURL,
		Phone:       power.Pixel3,
		MaxSegments: 30,
		UseMPC:      true,
		Transport:   rt,
		ClientID:    "netem-diff",
	})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t)
	report, err := client.Stream(2, h.eval[0])
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestNetemIdealConnMatchesDirectTransport is the shim's differential
// guarantee: the ideal profile (unlimited capacity, zero latency, zero loss)
// must be invisible — a full client session routed through a netem.Listener
// makes byte-for-byte the same decisions, downloads the same payloads, and
// reports bit-identical (Float64bits) values for every field that does not
// measure wall time. Wall-derived fields (throughput, buffer, Q, energy,
// stall) carry scheduler noise on BOTH transports and are excluded.
func TestNetemIdealConnMatchesDirectTransport(t *testing.T) {
	h := newHarness(t)

	direct := streamOverTransport(t, nil, h.server.URL)

	prof, err := netem.Named("ideal")
	if err != nil {
		t.Fatal(err)
	}
	l, err := netem.Listen(prof, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := &http.Server{Handler: h.server.Config.Handler}
	go srv.Serve(l)
	defer srv.Close()
	rt := &http.Transport{
		DialContext: func(context.Context, string, string) (net.Conn, error) { return l.Dial() },
	}
	emulated := streamOverTransport(t, rt, "http://netem")

	if len(direct.Segments) != len(emulated.Segments) {
		t.Fatalf("segment counts diverge: direct %d, netem %d", len(direct.Segments), len(emulated.Segments))
	}
	for i := range direct.Segments {
		d, e := direct.Segments[i], emulated.Segments[i]
		if d.Segment != e.Segment || d.Quality != e.Quality || d.Bytes != e.Bytes ||
			d.FromPtile != e.FromPtile || d.Emergency != e.Emergency ||
			d.Retries != e.Retries || d.Degraded != e.Degraded || d.Abandoned != e.Abandoned {
			t.Fatalf("segment %d decisions diverge:\ndirect  %+v\nnetem   %+v", i, d, e)
		}
		for _, f := range [][2]float64{
			{d.FrameRate, e.FrameRate},
			{d.SizeBits, e.SizeBits},
			{d.Q0, e.Q0},
			{d.QoELoss, e.QoELoss},
			{d.ViewCenter.X, e.ViewCenter.X},
			{d.ViewCenter.Y, e.ViewCenter.Y},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("segment %d float diverges: %x vs %x (%g vs %g)",
					i, math.Float64bits(f[0]), math.Float64bits(f[1]), f[0], f[1])
			}
		}
	}
	if direct.TotalBytes != emulated.TotalBytes || direct.PtileSegments != emulated.PtileSegments ||
		direct.TotalRetries != emulated.TotalRetries || direct.AbandonedSegments != emulated.AbandonedSegments {
		t.Fatalf("session totals diverge:\ndirect  %+v\nnetem   %+v", direct, emulated)
	}

	// Raw payloads are byte-identical too: same segment fetched over both
	// transports yields the same body.
	directBody := fetchBody(t, http.DefaultClient, h.server.URL+"/manifest?video=2")
	netemBody := fetchBody(t, &http.Client{Transport: rt}, "http://netem/manifest?video=2")
	if !bytes.Equal(directBody, netemBody) {
		t.Fatalf("manifest bodies diverge: %d vs %d bytes", len(directBody), len(netemBody))
	}
}

func fetchBody(t *testing.T, c *http.Client, url string) []byte {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// traceDiff names the first field in which two engine records differ,
// comparing floats by their bits; "" when they are identical.
func traceDiff(a, b sim.SegmentTrace) string {
	if a.Segment != b.Segment || a.Quality != b.Quality || a.FromPtile != b.FromPtile ||
		a.Emergency != b.Emergency || a.Retries != b.Retries || a.Degraded != b.Degraded ||
		a.Abandoned != b.Abandoned {
		return fmt.Sprintf("decisions %+v vs %+v", a, b)
	}
	for _, f := range []struct {
		name string
		x, y float64
	}{
		{"frame rate", a.FrameRate, b.FrameRate},
		{"size", a.SizeBits, b.SizeBits},
		{"throughput", a.ThroughputBps, b.ThroughputBps},
		{"buffer", a.BufferSec, b.BufferSec},
		{"Q0", a.Q0, b.Q0},
		{"Q", a.Q, b.Q},
		{"stall", a.StallSec, b.StallSec},
		{"energy", a.EnergyMJ, b.EnergyMJ},
		{"QoE loss", a.QoELoss, b.QoELoss},
	} {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			return fmt.Sprintf("%s %v vs %v", f.name, f.x, f.y)
		}
	}
	return ""
}

// wireBytes is the payload the server sends for a version of modelled size
// sizeBits.
func wireBytes(sizeBits float64) int64 { return max(int64(sizeBits/8), 1) }

// TestClientMatchesSim is the one-engine guarantee: a client session over
// HTTP makes the same decisions and reports the same numbers, bit for bit,
// as a sim.Stepper over an identical fresh link, and the server sends
// exactly the modelled bytes of every version the engine charged.
func TestClientMatchesSim(t *testing.T) {
	h := newHarness(t)
	const segments = 40
	lteLink := func(t *testing.T) sim.Link {
		_, tr2, err := lte.StandardTraces(600, 5)
		if err != nil {
			t.Fatal(err)
		}
		return tr2
	}
	netemLink := func(t *testing.T) sim.Link {
		prof, err := netem.Named("bufferbloat")
		if err != nil {
			t.Fatal(err)
		}
		pn, err := netem.NewSessionNet(netem.SessionConfig{Profile: prof, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return pn
	}
	cases := []struct {
		name   string
		scheme sim.Scheme
		est    predict.EstimatorKind
		link   func(*testing.T) sim.Link
		viewer int
	}{
		{"Ours/lte", sim.SchemeOurs, 0, lteLink, 0},
		{"Ptile/lte", sim.SchemePtile, 0, lteLink, 1},
		{"Ours/netem", sim.SchemeOurs, 0, netemLink, 2},
		{"Ptile/netem", sim.SchemePtile, 0, netemLink, 0},
		{"Ours/netem/delay-gradient", sim.SchemeOurs, predict.EstimatorDelayGradient, netemLink, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			viewer := h.eval[tc.viewer]
			client, err := NewClient(ClientConfig{
				BaseURL:         h.server.URL,
				Phone:           power.Pixel3,
				Link:            tc.link(t),
				Estimator:       tc.est,
				TimeCompression: 1e4,
				MaxSegments:     segments,
				UseMPC:          tc.scheme == sim.SchemeOurs,
			})
			if err != nil {
				t.Fatal(err)
			}
			report, err := client.Stream(2, viewer)
			if err != nil {
				t.Fatal(err)
			}

			cfg, err := sim.DefaultConfig(tc.scheme, power.Pixel3)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Estimator = tc.est
			cfg.RecordSegments = true
			st, err := sim.NewStepper(h.cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			state, err := st.NewState(viewer, tc.link(t))
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < segments; k++ {
				if _, err := st.Step(state); err != nil {
					t.Fatal(err)
				}
			}
			want := state.PerSegment()
			if len(report.Segments) != segments {
				t.Fatalf("client streamed %d segments, want %d", len(report.Segments), segments)
			}
			fallbacks := 0
			for k, rec := range report.Segments {
				if diff := traceDiff(rec.SegmentTrace, want[k]); diff != "" {
					t.Fatalf("segment %d: client vs sim: %s", k, diff)
				}
				if rec.Bytes != wireBytes(rec.SizeBits) {
					t.Fatalf("segment %d: received %d bytes, modelled size %v bits", k, rec.Bytes, rec.SizeBits)
				}
				if !rec.FromPtile {
					fallbacks++
				}
			}
			t.Logf("%d of %d segments on the conventional fallback", fallbacks, segments)
		})
	}

	t.Run("faults", func(t *testing.T) {
		// Segment 3's requests above the lowest quality and every request
		// of segment 5 arrive truncated: segment 3 must degrade to q1 and
		// segment 5 must be abandoned, each failed attempt charged to the
		// link for the bits that arrived.
		faulty, err := faultinject.NewTransport(faultinject.Profile{TruncateProb: 1, TruncateFrac: 0.5}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		route := roundTripFunc(func(req *http.Request) (*http.Response, error) {
			q := req.URL.Query()
			if req.URL.Path == "/segment" && (q.Get("seg") == "5" || q.Get("seg") == "3" && q.Get("q") != "1") {
				return faulty.RoundTrip(req)
			}
			return http.DefaultTransport.RoundTrip(req)
		})
		link := &recordingLink{Link: lteLink(t)}
		client, err := NewClient(ClientConfig{
			BaseURL:         h.server.URL,
			Phone:           power.Pixel3,
			Link:            link,
			TimeCompression: 1e4,
			MaxSegments:     8,
			UseMPC:          true,
			Transport:       route,
			Retry:           RetryPolicy{MaxAttempts: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		report, err := client.Stream(2, h.eval[0])
		if err != nil {
			t.Fatal(err)
		}
		recs := report.Segments
		if d := recs[3]; !d.Degraded || d.Abandoned || d.Retries == 0 || d.Quality != 1 || d.Bytes != wireBytes(d.SizeBits) {
			t.Fatalf("segment 3 not degraded to q1: %+v", d)
		}
		a := recs[5]
		if !a.Abandoned || a.Retries == 0 || a.Quality != 0 || a.Bytes != 0 || a.EnergyMJ != 0 || a.QoELoss != 1 {
			t.Fatalf("segment 5 not abandoned: %+v", a)
		}
		if report.DegradedSegments != 1 || report.AbandonedSegments != 1 {
			t.Fatalf("report counts %d degraded, %d abandoned; want 1 and 1", report.DegradedSegments, report.AbandonedSegments)
		}
		// Every truncated attempt delivered bytes, so each is one link
		// charge: segment k's charges are its retries plus, when served,
		// the delivered body.
		calls := 0
		for _, r := range recs[:5] {
			calls += r.Retries + 1
		}
		// Each attempt starts on the session clock where the previous
		// one's charge ended.
		var wasted float64
		for j := calls; j < calls+a.Retries; j++ {
			if want := link.starts[calls] + wasted; link.starts[j] != want {
				t.Fatalf("attempt %d of segment 5 charged from t=%v, want %v", j-calls, link.starts[j], want)
			}
			wasted += link.durs[j]
		}
		B := a.BufferSec
		if want := math.Max(wasted-B, 0) + 1; a.StallSec != want {
			t.Fatalf("abandon stall %v, want max(%v − %v, 0) + L = %v", a.StallSec, wasted, B, want)
		}
		// The next request sees the buffer left at max(B − wasted, 0),
		// drained to β by the wait.
		next := math.Max(B-wasted, 0)
		if dt := next - 3; dt > 0 {
			next -= dt
		}
		if recs[6].BufferSec != next {
			t.Fatalf("buffer after abandon %v, want %v", recs[6].BufferSec, next)
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// recordingLink logs the start and duration of every transfer charged to
// it.
type recordingLink struct {
	sim.Link
	starts, durs []float64
}

func (l *recordingLink) Download(bits, startSec float64) (float64, error) {
	dur, err := l.Link.Download(bits, startSec)
	l.starts = append(l.starts, startSec)
	l.durs = append(l.durs, dur)
	return dur, err
}
