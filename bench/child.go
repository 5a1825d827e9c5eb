package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// childEnv carries a childRequest to a re-executed copy of the benchmark:
// every repetition runs in a fresh process, so peak RSS and GC state
// belong to that repetition alone.
const childEnv = "BENCH_CHILD"

// runLimit bounds one run of one workload, children included: the
// parent kills a child still running when it expires and reports the run
// as failed, so a run ends well within three minutes.
const runLimit = 160 * time.Second

// nproc sizes every parallel knob: GOMAXPROCS (Go's default), suite
// workers, flow workers and client connections.
var nproc = runtime.NumCPU()

// childRequest asks a child process for one repetition of a workload.
type childRequest struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Scale overrides the workload's design scale (0 keeps it); the smoke
	// test shrinks every workload with it.
	Scale float64 `json:"scale,omitempty"`
	// Traced runs the traced pass: spans, boundary checks and the direct
	// kernel timings.
	Traced bool `json:"traced,omitempty"`
	// Seconds bounds a repetition that takes several samples (serve): it
	// takes one, then starts no other that would end more than Seconds
	// after the child started. A flow repetition is one sample and
	// ignores it.
	Seconds float64 `json:"seconds,omitempty"`

	deadline time.Time
}

// sample is one measured region.
type sample struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
}

// repResult is one repetition's measurements, written by the child as
// JSON on its standard output.
type repResult struct {
	// SetupS holds every set-up's time and Samples every measured region:
	// one of each for a flow or the suite, several for serve.
	SetupS  []float64 `json:"setup_s"`
	Samples []sample  `json:"samples"`
	// PeakRSSMB is read by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
	// Ops counts the operations attempted (flows, or client requests);
	// Failures holds one line per failed operation or check.
	Ops      int      `json:"ops"`
	Failures []string `json:"failures,omitempty"`
	// Digest hashes the repetition's outputs; every repetition of one
	// seed must produce the same digest.
	Digest string             `json:"digest"`
	Layer  map[string]float64 `json:"layer"`
	Spans  []span             `json:"spans,omitempty"`
	Info   []string           `json:"info,omitempty"`
}

func (r *repResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// timeSetup runs setup once and records its time in res; a run reports
// the median over its repetitions' set-ups.
func timeSetup(res *repResult, setup func() error) error {
	start := time.Now()
	err := setup()
	res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	return err
}

// meter measures wall time, CPU time and heap allocation over a region.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// startMeter collects the set-up's garbage first, so the region starts
// from the same heap state in every repetition.
func startMeter() meter {
	runtime.GC()
	return meter{wall: time.Now(), cpu: cpuTime(), alloc: allocBytes()}
}

// stop records the region as one of res's samples and returns it.
func (m meter) stop(res *repResult) sample {
	s := sample{
		WallS:   time.Since(m.wall).Seconds(),
		CPUS:    (cpuTime() - m.cpu).Seconds(),
		AllocMB: float64(allocBytes()-m.alloc) / (1 << 20),
	}
	res.Samples = append(res.Samples, s)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runChild runs one repetition in a fresh copy of this executable and
// returns its result and the child's whole lifetime. The child is killed
// when ctx ends or the parent dies.
func runChild(ctx context.Context, req childRequest) (*repResult, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	spec, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	took := time.Since(start)
	if err != nil {
		return nil, took, fmt.Errorf("%s repetition: %w", req.Workload, err)
	}
	res := &repResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, took, fmt.Errorf("%s repetition: bad result: %w", req.Workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return res, took, nil
}

// childMain runs the repetition spec describes and writes its result to
// standard output.
func childMain(spec string) int {
	var req childRequest
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad %s: %v\n", childEnv, err)
		return 2
	}
	w := workloadByName(req.Workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", req.Workload)
		return 2
	}
	req.deadline = time.Now().Add(seconds(req.Seconds))
	res := &repResult{Layer: make(map[string]float64)}
	if err := w.run(req, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", req.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write result: %v\n", err)
		return 1
	}
	return 0
}
