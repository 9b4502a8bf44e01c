package prof

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// Session is one profiling capture window: CPU profiling runs for its
// lifetime, mutex/block sampling is enabled on Start and restored on
// Stop, and Stop writes the point-in-time profiles (heap, allocs,
// mutex, block, goroutine) next to the CPU profile. One session at a
// time per process — runtime/pprof enforces the CPU side.
type Session struct {
	dir string
	cpu *os.File

	prevMutexFraction int
}

// Sampling rates of a Session: 1 in mutexFraction contention events,
// and blocking events of at least blockRateNs (100 µs — coarse enough
// not to distort the run).
const (
	mutexFraction = 5
	blockRateNs   = 100_000
)

// StartSession creates dir (if needed), starts CPU profiling into
// dir/cpu.pprof and enables mutex/block sampling.
func StartSession(dir string) (*Session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("prof: start cpu profile: %w", err)
	}
	s := &Session{dir: dir, cpu: f}
	s.prevMutexFraction = runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRateNs)
	return s, nil
}

// Stop ends the session: stops the CPU profile, writes the snapshot
// profiles, restores the sampling rates, and returns the files written
// (relative to the session directory).
func (s *Session) Stop() ([]string, error) {
	pprof.StopCPUProfile()
	err := s.cpuClose()
	runtime.SetBlockProfileRate(0)
	runtime.SetMutexProfileFraction(s.prevMutexFraction)
	files := []string{"cpu.pprof"}
	snap, serr := writeSnapshot(s.dir, "")
	if err == nil {
		err = serr
	}
	return append(files, snap...), err
}

func (s *Session) cpuClose() error {
	if s.cpu == nil {
		return nil
	}
	err := s.cpu.Close()
	s.cpu = nil
	return err
}

// WriteSnapshot dumps the point-in-time profiles (heap, allocs, mutex,
// block, goroutine) into dir, prefixing each file with tag ("tag-" is
// omitted when tag is empty). It is the on-demand capture behind the
// flight recorder's profile trigger and the OAM prof-dump register —
// no CPU profile, so it is safe while a Session runs. Returns the
// files written (relative to dir).
func WriteSnapshot(dir, tag string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return writeSnapshot(dir, tag)
}

func writeSnapshot(dir, tag string) ([]string, error) {
	prefix := ""
	if tag != "" {
		prefix = tag + "-"
	}
	// A GC pass first so the heap profile reflects live objects rather
	// than garbage awaiting collection.
	runtime.GC()
	var files []string
	var firstErr error
	for _, p := range []struct{ profile, file string }{
		{"heap", "heap.pprof"},
		{"allocs", "allocs.pprof"},
		{"mutex", "mutex.pprof"},
		{"block", "block.pprof"},
		{"goroutine", "goroutine.pprof"},
	} {
		name := prefix + p.file
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		err = pprof.Lookup(p.profile).WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		files = append(files, name)
	}
	return files, firstErr
}
