package ptile360

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden files under testdata")

// TestQuickScaleGolden pins every table of the quick-scale paper run byte
// for byte, so a change anywhere in the pipeline that moves a published
// number fails here instead of waiting for a reviewer to spot it. Run with
// -update to regenerate testdata/quick_all.golden after an intended change.
func TestQuickScaleGolden(t *testing.T) {
	tables, err := RunExperiment("all", QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, tbl := range tables {
		if err := WriteTableCSV(&got, tbl); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "quick_all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("quick-scale output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
