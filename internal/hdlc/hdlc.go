package hdlc

// Framing constants (RFC 1662 §4).
const (
	Flag   = 0x7E // frame delimiter
	Escape = 0x7D // control escape
	XorBit = 0x20 // bit 6 complemented on escaped octets
)

// ACCM is the Async-Control-Character-Map (RFC 1662 §7.1): bit n set means
// the control character with value n (0..31) must be escaped on
// transmission. Flag and Escape themselves are always escaped regardless
// of the map. The default for async links maps all 32 control characters;
// octet-synchronous links such as SONET (RFC 1619) negotiate 0.
type ACCM uint32

// Default ACCMs.
const (
	ACCMAll  ACCM = 0xFFFFFFFF // escape every control character (async default)
	ACCMNone ACCM = 0x00000000 // escape only Flag/Escape (SONET/SDH default)
)

// Escaped reports whether octet b must be escaped under the map.
func (m ACCM) Escaped(b byte) bool {
	if b == Flag || b == Escape {
		return true
	}
	return b < 0x20 && m&(1<<uint(b)) != 0
}

// Stuff appends the octet-stuffed encoding of src to dst and returns the
// extended slice. It processes one byte per iteration — the software
// analog of the 8-bit P5 Escape Generate unit, where a detected flag
// "halts the input data for 1 clock cycle while ... an extra byte is
// inserted".
func Stuff(dst, src []byte, m ACCM) []byte {
	for _, b := range src {
		if m.Escaped(b) {
			dst = append(dst, Escape, b^XorBit)
		} else {
			dst = append(dst, b)
		}
	}
	return dst
}

// destuff appends the decoded form of a stuffed byte sequence to dst.
// esc carries the escape-pending state across calls (streaming); pass
// false initially and thread the returned value through subsequent calls.
// A Flag octet must not appear in src (tokenize first); abort detection
// lives in the Tokenizer.
func destuff(dst, src []byte, esc bool) ([]byte, bool) {
	for _, b := range src {
		if esc {
			dst = append(dst, b^XorBit)
			esc = false
		} else if b == Escape {
			esc = true
		} else {
			dst = append(dst, b)
		}
	}
	return dst, esc
}
