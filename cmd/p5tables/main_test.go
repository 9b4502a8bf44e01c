package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadTableBeforePrinting: a -table outside 1…3 fails with
// exit status 2 and a message on stderr before any other section runs,
// so a bad invocation never prints half a report.
func TestRunRejectsBadTableBeforePrinting(t *testing.T) {
	for _, args := range [][]string{{"-table", "7"}, {"-table", "7", "-ratios"}, {"-ratios", "-table", "-1"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
		if !strings.Contains(errb.String(), "-table must be 1, 2 or 3") {
			t.Errorf("%v: stderr %q", args, errb.String())
		}
	}
}

// TestScalingPrintsGoodputSurface: -scaling ends in the width × density
// goodput surface, each cell a System run; the 32-bit cell at 0 % is the
// paper's 2.5 Gb/s headline.
func TestScalingPrintsGoodputSurface(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scaling"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{
		"goodput in Gb/s at the 78.125 MHz target clock",
		"  32-bit     2.481     2.455     2.354     1.877     1.422     0.839",
		"   8-bit     0.621",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
