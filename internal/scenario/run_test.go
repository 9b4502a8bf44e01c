package scenario

import (
	"path/filepath"
	"strings"
	"testing"

	gigapos "repro"
	"repro/internal/flight"
)

// TestCommittedScenarios is the data-driven suite: every document under
// scenarios/ must load and pass its own assertions. Adding a new drill
// or mode to the repo is adding a JSON file, not a test. The socket
// engines under scenarios/net/ need a peer process: scripts/verify.sh
// runs each as two p5sim halves.
func TestCommittedScenarios(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 13 {
		t.Fatalf("found only %d committed scenarios, expected at least 13", len(files))
	}
	for _, f := range files {
		t.Run(strings.TrimSuffix(filepath.Base(f), ".json"), func(t *testing.T) {
			t.Parallel()
			s, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			var o gigapos.Observation
			if s.Ring != nil || s.Protected != nil {
				o.Flight = &flight.Config{Dir: t.TempDir()}
			}
			res, err := s.Run(RunConfig{Observation: o})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Circuits {
				t.Log(c.summary())
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
