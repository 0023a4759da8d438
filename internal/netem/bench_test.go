package netem

import (
	"io"
	"testing"
)

// BenchmarkNetemDownload measures one 4 Mbit segment through the
// packet-level path (bufferbloat profile: ~334 MTU packets per download).
func BenchmarkNetemDownload(b *testing.B) {
	p, err := Named("bufferbloat")
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewSessionNet(SessionConfig{Profile: p, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tWall := 0.0
	for i := 0; i < b.N; i++ {
		dur, err := n.Download(4e6, tWall)
		if err != nil {
			b.Fatal(err)
		}
		tWall += dur + 1
	}
}

// BenchmarkNetemDownloadPaced is the same segment with the interval-budget
// paced sender engaged.
func BenchmarkNetemDownloadPaced(b *testing.B) {
	p, err := Named("bufferbloat")
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewSessionNet(SessionConfig{Profile: p, Seed: 1, SegmentSec: 1, PaceFactor: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tWall := 0.0
	for i := 0; i < b.N; i++ {
		dur, err := n.Download(4e6, tWall)
		if err != nil {
			b.Fatal(err)
		}
		tWall += dur + 1
	}
}

// BenchmarkNetemDownloadLossy is the paced segment over bufferbloat with 2 %
// i.i.d. loss, so retransmissions interleave with first sends through the
// retransmission heap.
func BenchmarkNetemDownloadLossy(b *testing.B) {
	p, err := ParseProfile("bufferbloat,loss=0.02")
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewSessionNet(SessionConfig{Profile: p, Seed: 1, SegmentSec: 1, PaceFactor: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tWall := 0.0
	for i := 0; i < b.N; i++ {
		dur, err := n.Download(4e6, tWall)
		if err != nil {
			b.Fatal(err)
		}
		tWall += dur + 1
	}
}

// BenchmarkPacerWrite measures the paced writer on a virtual clock pushing
// a 64 KB chunk (the server's segment write unit).
func BenchmarkPacerWrite(b *testing.B) {
	var now float64
	pw, err := NewPacedWriter(io.Discard, 40e6,
		func() float64 { return now },
		func(sec float64) { now += sec },
		nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pw.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}
