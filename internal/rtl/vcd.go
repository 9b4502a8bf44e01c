package rtl

import (
	"fmt"
	"io"
	"strconv"
)

// VCD dumps simulation activity as a Value Change Dump file (IEEE
// 1364), viewable in GTKWave and every other waveform viewer — the
// tooling a hardware engineer would reach for when debugging the P5
// pipelines.
type VCD struct {
	w          io.Writer
	signals    []vcdSignal
	headerDone bool
	err        error
}

type vcdSignal struct {
	name  string
	width int
	id    string
	probe func() (value uint64, valid bool)
	last  uint64
	lastV bool
	first bool
}

// NewVCD creates a dump writing to w. Register signals with Watch and
// WatchWire before the first Sample.
func NewVCD(w io.Writer) *VCD { return &VCD{w: w} }

// Watch registers a probe: each Sample reads it and records changes.
// width is in bits; valid=false renders as x (unknown).
func (v *VCD) Watch(name string, width int, probe func() (uint64, bool)) {
	id := vcdID(len(v.signals))
	v.signals = append(v.signals, vcdSignal{
		name: name, width: width, id: id, probe: probe, first: true,
	})
}

// WatchWire registers a wire's standing flit (data lanes + valid flag).
func (v *VCD) WatchWire(name string, w *Wire, lanes int) {
	v.Watch(name+".data", lanes*8, func() (uint64, bool) {
		f, ok := w.Peek()
		return f.Data, ok
	})
	v.Watch(name+".valid", 1, func() (uint64, bool) {
		_, ok := w.Peek()
		if ok {
			return 1, true
		}
		return 0, true
	})
}

// vcdID maps an index to a short printable identifier.
func vcdID(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < len(alphabet) {
		return string(alphabet[i])
	}
	return string(alphabet[i%len(alphabet)]) + strconv.Itoa(i/len(alphabet))
}

func (v *VCD) header() {
	fmt.Fprintf(v.w, "$timescale 1ns $end\n$scope module p5 $end\n")
	for _, s := range v.signals {
		fmt.Fprintf(v.w, "$var wire %d %s %s $end\n", s.width, s.id, s.name)
	}
	fmt.Fprintf(v.w, "$upscope $end\n$enddefinitions $end\n")
	v.headerDone = true
}

// Sample records the current state at the given cycle; call it once per
// clock after Sim.Cycle.
func (v *VCD) Sample(cycle int64) {
	if v.err != nil {
		return
	}
	if !v.headerDone {
		v.header()
	}
	stamped := false
	for i := range v.signals {
		s := &v.signals[i]
		val, ok := s.probe()
		if !s.first && val == s.last && ok == s.lastV {
			continue
		}
		if !stamped {
			fmt.Fprintf(v.w, "#%d\n", cycle)
			stamped = true
		}
		if ok {
			fmt.Fprintf(v.w, "b%b %s\n", val, s.id)
		} else {
			fmt.Fprintf(v.w, "bx %s\n", s.id)
		}
		s.last, s.lastV, s.first = val, ok, false
	}
}
