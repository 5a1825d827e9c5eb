// Package prof is the shared -cpuprofile/-memprofile wiring of the
// command-line tools: standard runtime/pprof profiles, so a whole-flow
// CPU or allocation hot spot is reproducible from any flow invocation.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Session holds the open profile outputs of one tool run.
type Session struct {
	cpu *os.File
	mem string
}

// Start begins CPU profiling into cpuPath (empty = off) and remembers
// memPath for the heap snapshot Stop writes. Call Stop before the
// process exits; the usual pattern is
//
//	sess, err := prof.Start(*cpuprofile, *memprofile)
//	...
//	defer sess.Stop()
func Start(cpuPath, memPath string) (*Session, error) {
	s := &Session{mem: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
		s.cpu = f
	}
	return s, nil
}

// Stop ends the CPU profile and writes the allocation profile (the
// "allocs" profile: every allocation since process start, not just live
// heap) to the memprofile path given to Start. Safe on a nil session.
func (s *Session) Stop() error {
	if s == nil {
		return nil
	}
	if s.cpu != nil {
		pprof.StopCPUProfile()
		if err := s.cpu.Close(); err != nil {
			return fmt.Errorf("prof: close cpu profile: %w", err)
		}
		s.cpu = nil
	}
	if s.mem != "" {
		f, err := os.Create(s.mem)
		if err != nil {
			return fmt.Errorf("prof: create mem profile: %w", err)
		}
		runtime.GC() // materialize the final live set before snapshotting
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("prof: write mem profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("prof: close mem profile: %w", err)
		}
		s.mem = ""
	}
	return nil
}
