package fault

// Pair drives independent scripted scenarios over the two lines of a
// 1+1 protected pair: one Injector per line, each with its own script,
// position and statistics, so a protection test can cut the working
// line while the protect line stays clean (or degrade both on
// different schedules) and reconcile what each line actually saw.
type Pair struct {
	Working, Protect *Injector
}

// NewPair returns injectors for the two per-line scenarios.
func NewPair(working, protect Script) *Pair {
	return &Pair{Working: NewInjector(working), Protect: NewInjector(protect)}
}

// Apply passes one chunk of the given line's stream (0 = working,
// 1 = protect) through that line's injector.
func (p *Pair) Apply(line int, chunk []byte) []byte {
	if line&1 == 0 {
		return p.Working.Apply(chunk)
	}
	return p.Protect.Apply(chunk)
}
