package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions drives RunLoad, the loopback load harness: Sessions
// session lifecycles (dial, OPEN, Rounds × [MUTS + TIMQ], CLOS) spread
// over Concurrency worker goroutines against one workload.
type LoadOptions struct {
	Addr string
	// Sessions is the total session count (default 500).
	Sessions int
	// Concurrency is the number of sessions in flight at once (default
	// 32). The server's MaxSessions must be at least this for a
	// zero-refusal run.
	Concurrency int
	// Rounds is the mutate+timing round count per session (default 3).
	Rounds int
	// MutationsPerRound sizes each MUTS batch (default 4).
	MutationsPerRound int

	// The workload every session opens (defaults: ldpc / 2D-12T /
	// scale 0.05 / seed 1 / 1 GHz / place boundary).
	Design   string
	Config   string
	Scale    float64
	Seed     int64
	ClockGHz float64
	Boundary string
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Sessions <= 0 {
		o.Sessions = 500
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 32
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.MutationsPerRound <= 0 {
		o.MutationsPerRound = 4
	}
	if o.Design == "" {
		o.Design = "ldpc"
	}
	if o.Config == "" {
		o.Config = "2D-12T"
	}
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ClockGHz == 0 {
		o.ClockGHz = 1.0
	}
	if o.Boundary == "" {
		o.Boundary = "place"
	}
	return o
}

// LatencyStats summarizes one operation's latency distribution.
type LatencyStats struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"-"`
	P99   time.Duration `json:"-"`
	Max   time.Duration `json:"-"`
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted
// durations by the nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func summarize(samples []time.Duration) LatencyStats {
	s := LatencyStats{Count: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.P50 = percentile(sorted, 50)
	s.P99 = percentile(sorted, 99)
	s.Max = sorted[len(sorted)-1]
	return s
}

// LoadReport is RunLoad's result: per-operation latency distributions,
// throughput, and the error tally (which a healthy run leaves at zero).
type LoadReport struct {
	Opt      LoadOptions
	Wall     time.Duration
	Ops      int
	OpsPerS  float64
	Sessions int

	Open   LatencyStats
	Mutate LatencyStats
	Timing LatencyStats
	Close  LatencyStats

	// Errors counts failed operations; FirstErrors keeps the first few
	// messages for diagnosis.
	Errors      int
	FirstErrors []string
}

// RunLoad drives the harness against a listening server and aggregates
// the report. Session workloads are identical (exercising the server's
// snapshot cache exactly as a fleet of interactive clients would);
// mutation targets and coordinates vary deterministically per session
// and round, so the journals and timing queries differ session to
// session.
func RunLoad(ctx context.Context, opt LoadOptions) (*LoadReport, error) {
	opt = opt.withDefaults()

	var (
		mu     sync.Mutex
		rep    = LoadReport{Opt: opt}
		opens  []time.Duration
		muts   []time.Duration
		tims   []time.Duration
		closes []time.Duration
	)
	fail := func(err error) {
		mu.Lock()
		rep.Errors++
		if len(rep.FirstErrors) < 5 {
			rep.FirstErrors = append(rep.FirstErrors, err.Error())
		}
		mu.Unlock()
	}
	record := func(bucket *[]time.Duration, d time.Duration) {
		mu.Lock()
		*bucket = append(*bucket, d)
		mu.Unlock()
	}

	runSession := func(idx int) {
		cl, err := Dial(opt.Addr)
		if err != nil {
			fail(fmt.Errorf("session %d: %w", idx, err))
			return
		}
		defer cl.Close()

		t0 := time.Now()
		info, err := cl.Open(&OpenRequest{
			Design:   opt.Design,
			Config:   opt.Config,
			Scale:    opt.Scale,
			Seed:     opt.Seed,
			ClockGHz: opt.ClockGHz,
			Boundary: opt.Boundary,
		}, nil)
		if err != nil {
			fail(fmt.Errorf("session %d: open: %w", idx, err))
			return
		}
		record(&opens, time.Since(t0))

		for round := 0; round < opt.Rounds; round++ {
			batch := make([]Mutation, opt.MutationsPerRound)
			for m := range batch {
				// Deterministic per (session, round, slot): distinct
				// instances and coordinates without any shared RNG.
				id := int32((idx*131 + round*17 + m*7) % int(info.Cells))
				batch[m] = Mutation{
					ID:   id,
					Kind: MutSetLoc,
					X:    float64((idx+round+m)%97) * 1.25,
					Y:    float64((idx*3+round*5+m)%89) * 1.25,
				}
			}
			t0 = time.Now()
			if _, err := cl.Mutate(batch); err != nil {
				fail(fmt.Errorf("session %d: mutate round %d: %w", idx, round, err))
				return
			}
			record(&muts, time.Since(t0))

			t0 = time.Now()
			if _, err := cl.Timing(); err != nil {
				fail(fmt.Errorf("session %d: timing round %d: %w", idx, round, err))
				return
			}
			record(&tims, time.Since(t0))
		}

		t0 = time.Now()
		if err := cl.Close(); err != nil {
			fail(fmt.Errorf("session %d: close: %w", idx, err))
			return
		}
		record(&closes, time.Since(t0))
	}

	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				idx := int(next.Add(1)) - 1
				if idx >= opt.Sessions {
					return
				}
				runSession(idx)
			}
		}()
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep.Open = summarize(opens)
	rep.Mutate = summarize(muts)
	rep.Timing = summarize(tims)
	rep.Close = summarize(closes)
	rep.Sessions = rep.Open.Count
	rep.Ops = len(opens) + len(muts) + len(tims) + len(closes)
	if s := rep.Wall.Seconds(); s > 0 {
		rep.OpsPerS = float64(rep.Ops) / s
	}
	return &rep, nil
}

// Summary renders the human-readable report lines flowc prints.
func (r *LoadReport) Summary() string {
	line := func(name string, s LatencyStats) string {
		return fmt.Sprintf("%-7s n=%-5d p50=%8.2fms  p99=%8.2fms  max=%8.2fms\n",
			name, s.Count, ms(s.P50), ms(s.P99), ms(s.Max))
	}
	out := fmt.Sprintf("%d sessions (%d concurrent) against %s: %d ops in %.2fs (%.0f ops/s), %d errors\n",
		r.Sessions, r.Opt.Concurrency, r.Opt.Addr, r.Ops, r.Wall.Seconds(), r.OpsPerS, r.Errors)
	out += line("open", r.Open) + line("mutate", r.Mutate) + line("timing", r.Timing) + line("close", r.Close)
	for _, e := range r.FirstErrors {
		out += "error: " + e + "\n"
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
