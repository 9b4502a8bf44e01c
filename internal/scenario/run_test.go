package scenario

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedScenarios is the data-driven chaos suite: every drill
// under scenarios/ must load and pass its own assertions. Adding a new
// failure drill to the repo is adding a JSON file, not a test.
func TestCommittedScenarios(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("found only %d committed scenarios, expected at least 6", len(files))
	}
	for _, f := range files {
		f := f
		t.Run(strings.TrimSuffix(filepath.Base(f), ".json"), func(t *testing.T) {
			t.Parallel()
			s, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(RunConfig{CaptureDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Circuits {
				t.Log(c.Summary())
			}
			t.Logf("bring-up %d ticks, %d resyncs", res.BringUpTicks, res.Resyncs)
			if !res.Pass {
				for _, fl := range res.Failures {
					t.Errorf("assertion failed [%s]: %s", fl.Circuit, fl.Msg)
				}
				for _, p := range res.CapturePaths {
					t.Logf("flight capture: %s", p)
				}
			}
		})
	}
}
