package sim

import (
	"math"
	"reflect"
	"testing"

	"ptile360/internal/lte"
	"ptile360/internal/power"
)

// scriptedFetcher is a Fetcher over a trace: by default it delivers the
// controller's choice with the trace's download time, exactly as a plain
// link; script overrides the outcome of chosen segments.
type scriptedFetcher struct {
	*lte.Trace
	script map[int]func(req FetchRequest) FetchOutcome
}

func (f *scriptedFetcher) Fetch(req FetchRequest) (FetchOutcome, error) {
	if s, ok := f.script[req.Segment]; ok {
		return s(req), nil
	}
	dl, err := f.Download(req.Chosen.SizeBits, req.StartSec)
	return FetchOutcome{Delivered: req.Chosen, DownloadSec: dl}, err
}

// TestFetcherPlainMatchesLink pins the fault-free fetch path: a Fetcher
// that always delivers the choice is the plain link, bit for bit.
func TestFetcherPlainMatchesLink(t *testing.T) {
	fx := fixture(t)
	for _, scheme := range []Scheme{SchemePtile, SchemeOurs} {
		cfg, err := DefaultConfig(scheme, power.Pixel3)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RecordSegments = true
		want, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(fx.cat, fx.eval[0], &scriptedFetcher{Trace: fx.trace}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: fetcher run diverged from the plain link", scheme)
		}
	}
}

// TestFetcherOutcomeAccounting checks how a step accounts a degraded and an
// abandoned fetch: the waste drains the buffer before the delivered
// download, and an abandon stalls max(wasted − B, 0) + L, leaves the buffer
// at max(B − wasted, 0), plays nothing and loses the whole QoE.
func TestFetcherOutcomeAccounting(t *testing.T) {
	fx := fixture(t)
	cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecordSegments = true
	const degradeSeg, waste = 6, 0.7
	abandons := map[int]float64{9: 5, 12: 0.25}
	link := &scriptedFetcher{Trace: fx.trace, script: map[int]func(FetchRequest) FetchOutcome{}}
	link.script[degradeSeg] = func(req FetchRequest) FetchOutcome {
		cheapest := req.Options[0]
		for _, o := range req.Options {
			if o.SizeBits < cheapest.SizeBits {
				cheapest = o
			}
		}
		dl, err := fx.trace.Download(cheapest.SizeBits, req.StartSec+waste)
		if err != nil {
			t.Error(err)
		}
		return FetchOutcome{Delivered: cheapest, Rung: 3, DownloadSec: dl, WastedSec: waste, Retries: 3}
	}
	for seg, w := range abandons {
		w := w
		link.script[seg] = func(FetchRequest) FetchOutcome {
			return FetchOutcome{WastedSec: w, Retries: 4, Abandoned: true}
		}
	}
	st, err := NewStepper(fx.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state, err := st.NewState(fx.eval[0], link)
	if err != nil {
		t.Fatal(err)
	}
	var infos []StepInfo
	for k := 0; k < 16; k++ {
		info, err := st.Step(state)
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	recs := state.PerSegment()

	d := recs[degradeSeg]
	if !d.Degraded || d.Abandoned || d.Retries != 3 || d.Quality != 1 {
		t.Fatalf("degraded segment recorded %+v", d)
	}
	if want := math.Max(waste+infos[degradeSeg].DownloadSec-d.BufferSec, 0); math.Abs(d.StallSec-want) > 1e-9 {
		t.Fatalf("degraded stall %v, want %v", d.StallSec, want)
	}

	for seg, w := range abandons {
		r, info := recs[seg], infos[seg]
		B := r.BufferSec
		if !r.Abandoned || r.Retries != 4 || r.Quality != 0 || r.SizeBits != 0 || r.EnergyMJ != 0 ||
			r.Q0 != 0 || r.Q != 0 || r.QoELoss != 1 {
			t.Fatalf("segment %d: abandon recorded %+v", seg, r)
		}
		if want := math.Max(w-B, 0) + cfg.SegmentSec; r.StallSec != want || info.StallSec != want {
			t.Fatalf("segment %d: abandon stall %v (info %v), want %v", seg, r.StallSec, info.StallSec, want)
		}
		if want := math.Max(B-w, 0); info.BufferSec != want {
			t.Fatalf("segment %d: buffer after abandon %v, want %v", seg, info.BufferSec, want)
		}
		if want := infos[seg-1].WallSec + info.WaitSec + w; info.WallSec != want {
			t.Fatalf("segment %d: clock after abandon %v, want %v", seg, info.WallSec, want)
		}
	}
	res, err := st.Finish(state)
	if err != nil {
		t.Fatal(err)
	}
	var stall float64
	for _, r := range recs {
		stall += r.StallSec
	}
	if res.Segments != 16 || res.QoE.StallSec != stall {
		t.Fatalf("session accounting: %d segments, stall %v, want 16 and %v", res.Segments, res.QoE.StallSec, stall)
	}
}
