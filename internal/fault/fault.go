// Package fault is a deterministic, scriptable fault injector for byte
// streams: the impairment layer the robustness tests drive the SONET
// section and PPP stack with. It models the failures a real OC-48 line
// sees — byte insert/delete slips that break frame alignment (a
// deletion to a frame boundary truncates the frame), duplication,
// octet corruption, timed line-cut (LOS) windows during which the
// receiver sees a dead (all-zeros) line, and timed noise windows of
// random bit errors, the one source of analog noise (channel.BER seeded
// per window; a cut fibre carries no light, so no noise inside LOS).
//
// Every impairment is an Op pinned to an absolute input-stream octet
// offset, so a scenario is exactly reproducible: build a Script (by hand,
// or compiled from a scenario file's events by internal/scenario), wrap
// it in an Injector, and pass the line stream through Apply.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/channel"
	"repro/internal/netsim"
)

// kind identifies an impairment type.
type kind int

// The impairment kinds.
const (
	// kindInsert inserts Data octets into the stream at At (a positive
	// byte slip: downstream alignment shifts late).
	kindInsert kind = iota
	// kindDelete removes N octets starting at At (a negative byte slip
	// or, spanning to a frame boundary, a frame truncation).
	kindDelete
	// kindDuplicate re-emits the last N delivered octets at At.
	kindDuplicate
	// kindCorrupt XORs Mask over N octets starting at At.
	kindCorrupt
	// kindLOS replaces N octets starting at At with zeros — a timed
	// line cut, the all-zeros dead line of a loss-of-signal window.
	kindLOS
	// kindNoise applies random bit errors at Rate over N octets starting
	// at At, drawn from a generator seeded by the op's Seed — a timed,
	// reproducible noise burst (the resync-under-noise drills).
	kindNoise
)

func (k kind) String() string {
	if names := [...]string{"insert", "delete", "duplicate", "corrupt", "los", "noise"}; k >= 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op is one scripted impairment, fired when the injector's input
// position reaches At.
type Op struct {
	At   int64   // input-stream octet offset
	Kind kind    //
	N    int     // span in octets (Delete/Duplicate/Corrupt/LOS/Noise)
	Data []byte  // octets to insert (Insert)
	Mask byte    // XOR mask (Corrupt); 0 defaults to 0xFF
	Rate float64 // bit error rate inside the window (Noise)
	Seed uint64  // noise generator seed (Noise)
}

// Script is an ordered fault scenario.
type Script struct {
	Ops []Op
}

// Insert schedules a byte-slip insertion of data at offset at.
func (s *Script) Insert(at int64, data ...byte) *Script {
	s.Ops = append(s.Ops, Op{At: at, Kind: kindInsert, Data: data})
	return s
}

// Delete schedules removal of n octets at offset at.
func (s *Script) Delete(at int64, n int) *Script {
	s.Ops = append(s.Ops, Op{At: at, Kind: kindDelete, N: n})
	return s
}

// Duplicate schedules re-emission of the n octets delivered before at.
func (s *Script) Duplicate(at int64, n int) *Script {
	s.Ops = append(s.Ops, Op{At: at, Kind: kindDuplicate, N: n})
	return s
}

// Corrupt schedules an XOR of mask over n octets at offset at.
func (s *Script) Corrupt(at int64, n int, mask byte) *Script {
	s.Ops = append(s.Ops, Op{At: at, Kind: kindCorrupt, N: n, Mask: mask})
	return s
}

// LOS schedules a line cut: n octets of dead (zero) line from at.
func (s *Script) LOS(at int64, n int) *Script {
	s.Ops = append(s.Ops, Op{At: at, Kind: kindLOS, N: n})
	return s
}

// Noise schedules a reproducible noise burst: bit errors at rate over n
// octets from at, drawn from a generator seeded with seed.
func (s *Script) Noise(at int64, n int, rate float64, seed uint64) *Script {
	s.Ops = append(s.Ops, Op{At: at, Kind: kindNoise, N: n, Rate: rate, Seed: seed})
	return s
}

// String renders the scenario for logs and OAM dumps.
func (s *Script) String() string {
	var b strings.Builder
	for i, op := range s.Ops {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch op.Kind {
		case kindInsert:
			fmt.Fprintf(&b, "insert@%d+%d", op.At, len(op.Data))
		default:
			fmt.Fprintf(&b, "%v@%d:%d", op.Kind, op.At, op.N)
		}
	}
	return b.String()
}

// Stats counts what the injector actually did, for reconciling a run
// against its script.
type Stats struct {
	Inserted   uint64 // octets added by Insert ops
	Deleted    uint64 // octets removed by Delete ops
	Duplicated uint64 // octets re-emitted by Duplicate ops
	LOSOctets  uint64 // octets zeroed inside LOS windows
	NoiseBits  uint64 // bits flipped inside scripted Noise windows
}

// histMax bounds the delivered-octet history kept for Duplicate ops.
const histMax = 8192

// Injector applies a Script to a byte stream fed through Apply in
// arbitrary chunks. It is deterministic: the same script and input
// always produce the same output, however the input is chunked.
type Injector struct {
	// Stats tallies applied impairments.
	Stats Stats

	ops     []Op // remaining, sorted by At
	pos     int64
	delEnd  int64 // input offset until which octets are dropped
	losEnd  int64 // input offset until which the line is dead
	corEnd  int64 // input offset until which octets are XORed
	corMask byte
	noiEnd  int64        // input offset until which noise applies
	noise   *channel.BER // active noise window's generator
	hist    []byte       // recent delivered octets, for Duplicate
}

// NewInjector returns an injector for the given scenario.
func NewInjector(script Script) *Injector {
	ops := append([]Op(nil), script.Ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return &Injector{ops: ops}
}

// Apply passes one chunk of the stream through the injector and returns
// the impaired chunk (which may be shorter or longer than the input).
func (in *Injector) Apply(p []byte) []byte {
	out := make([]byte, 0, len(p)+8)
	for _, b := range p {
		for len(in.ops) > 0 && in.ops[0].At <= in.pos {
			op := in.ops[0]
			in.ops = in.ops[1:]
			switch op.Kind {
			case kindInsert:
				out = append(out, op.Data...)
				in.Stats.Inserted += uint64(len(op.Data))
			case kindDelete:
				in.delEnd = max(in.delEnd, in.pos+int64(op.N))
			case kindDuplicate:
				// Replay the most recently delivered octets: the tail of
				// this chunk's output first, then saved history.
				n := op.N
				var dup []byte
				if n <= len(out) {
					dup = out[len(out)-n:]
				} else {
					m := n - len(out)
					if m > len(in.hist) {
						m = len(in.hist)
					}
					dup = append(append([]byte{}, in.hist[len(in.hist)-m:]...), out...)
				}
				out = append(out, dup...)
				in.Stats.Duplicated += uint64(len(dup))
			case kindCorrupt:
				in.corEnd = max(in.corEnd, in.pos+int64(op.N))
				in.corMask = op.Mask
				if in.corMask == 0 {
					in.corMask = 0xFF
				}
			case kindLOS:
				in.losEnd = max(in.losEnd, in.pos+int64(op.N))
			case kindNoise:
				in.noiEnd = max(in.noiEnd, in.pos+int64(op.N))
				in.noise = &channel.BER{Rate: op.Rate, Rand: netsim.NewRand(op.Seed)}
			}
		}
		switch {
		case in.pos < in.delEnd:
			in.Stats.Deleted++
		case in.pos < in.losEnd:
			// Dead line: no noise inside the cut.
			out = append(out, 0)
			in.Stats.LOSOctets++
		default:
			if in.pos < in.corEnd {
				b ^= in.corMask
			}
			if in.pos < in.noiEnd && in.noise != nil {
				one := [1]byte{b}
				in.Stats.NoiseBits += uint64(in.noise.Apply(one[:]))
				b = one[0]
			}
			out = append(out, b)
		}
		in.pos++
	}
	if n := len(out); n > 0 {
		in.hist = append(in.hist, out...)
		if len(in.hist) > histMax {
			in.hist = in.hist[len(in.hist)-histMax:]
		}
	}
	return out
}

// Done reports whether every scripted op has fired.
func (in *Injector) Done() bool { return len(in.ops) == 0 }
