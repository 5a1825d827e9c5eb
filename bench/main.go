// Command bench measures the reproduction end to end and layer by layer.
// It runs one workload (or all four) for a fixed time, each timed
// repetition in a fresh child process, checks every output, and prints
// one line per metric followed by a JSON summary as the last line:
//
//	bash bench/run.sh --workload flow-cpu-2d --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// reports the per-layer metrics, from the same timed repetitions plus
// one traced repetition. --trace-json also writes the traced
// repetition's spans as a Chrome trace-event file for Perfetto.
// --calibrate N runs every end-to-end metric over seeds 1..N twice and
// prints the noise report the bounds in BENCHMARK.json come from.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 30

// minReps is the fewest timed repetitions a run makes, so every
// end-to-end metric is a median of at least three.
const minReps = 3

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default all)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (>= 1)")
	seconds := fs.Float64("seconds", defaultSeconds, "how long to repeat the timed repetitions")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, with a traced repetition")
	traceJSON := fs.String("trace-json", "", "write the traced repetition's spans to this file as Chrome trace-event JSON")
	calib := fs.Int("calibrate", 0, "measure the end-to-end noise over this many seeds, twice, and print the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames()
	if *name != "" {
		if workloadByName(*name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		names = []string{*name}
	}
	if *seed < 1 || *trace < 0 || *trace > 1 || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: want --seed >= 1, --trace 0 or 1, --seconds >= 0 and no positional arguments")
		return 2
	}
	if *calib > 0 {
		if err := calibrate(names, *calib, *seconds, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	traced := *trace == 1 || *traceJSON != ""
	total := summary{Correct: true, Metrics: make(map[string]metricValue)}
	spans := make(map[string][]span)
	for _, w := range names {
		o, err := runWorkload(w, *seed, *seconds, minReps, traced, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		s := o.summary(*trace == 1)
		o.print(stdout, *trace == 1)
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		total.Correct = total.Correct && s.Correct
		for k, v := range s.Metrics {
			total.Metrics[w+"."+k] = v
		}
		if len(names) == 1 {
			total.Metrics = s.Metrics
		}
		if o.traced != nil {
			spans[w] = o.traced.Spans
		}
	}
	if *traceJSON != "" {
		if err := writeChromeTrace(*traceJSON, spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// outcome is one run of one workload: its timed repetitions and, when
// traced, the traced one.
type outcome struct {
	workload string
	timed    []*repResult
	traced   *repResult
	ops      int
	failures []string
}

// runWorkload runs the traced repetition first if asked, then repeats
// the workload in child processes until another repetition would end past
// seconds (at least min times). A flow repetition is one sample; a serve
// repetition takes samples for a min-th of seconds. Every repetition's
// output digest must match the first's.
func runWorkload(name string, seed int64, seconds float64, min int, traced bool, scale float64) (*outcome, error) {
	o := &outcome{workload: name}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	var all []*repResult
	if traced {
		r, _, err := runChild(ctx, childRequest{Workload: name, Seed: seed, Scale: scale, Traced: true})
		if err != nil {
			return nil, err
		}
		o.traced = r
		all = append(all, r)
	}
	var took []float64
	for {
		r, d, err := runChild(ctx, childRequest{Workload: name, Seed: seed, Scale: scale, Seconds: seconds / float64(min)})
		if err != nil {
			return nil, err
		}
		o.timed = append(o.timed, r)
		all = append(all, r)
		took = append(took, d.Seconds())
		if len(o.timed) >= min && time.Since(start).Seconds()+median(took) > seconds {
			break
		}
	}
	for i, r := range all {
		o.ops += r.Ops
		o.failures = append(o.failures, r.Failures...)
		if r.Digest != all[0].Digest {
			o.failures = append(o.failures, fmt.Sprintf("repetition %d: output digest %.12s differs from the first repetition's %.12s",
				i+1, r.Digest, all[0].Digest))
		}
	}
	return o, nil
}

// endToEnd returns every end-to-end metric's values over the timed
// repetitions: every set-up, every sample, and each repetition's peak RSS.
func (o *outcome) endToEnd() map[string][]float64 {
	m := make(map[string][]float64)
	for _, r := range o.timed {
		m["setup_s"] = append(m["setup_s"], r.SetupS...)
		for _, s := range r.Samples {
			m["wall_s"] = append(m["wall_s"], s.WallS)
			m["cpu_s"] = append(m["cpu_s"], s.CPUS)
			m["alloc_mb"] = append(m["alloc_mb"], s.AllocMB)
		}
		m["peak_rss_mb"] = append(m["peak_rss_mb"], r.PeakRSSMB)
	}
	return m
}

// wall is the median wall time of the timed samples.
func (o *outcome) wall() float64 { return median(o.endToEnd()["wall_s"]) }

// perLayer returns every per-layer metric: the median over the timed
// repetitions where they measured it, else the traced repetition's
// value, else 0 (the workload never runs that layer).
func (o *outcome) perLayer() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, def := range perLayer {
		var xs []float64
		for _, r := range o.timed {
			if v, ok := r.Layer[def.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 && o.traced != nil {
			if v, ok := o.traced.Layer[def.name]; ok {
				xs = []float64{v}
			}
		}
		out[def.name] = median(xs)
	}
	var util []float64
	for _, r := range o.timed {
		for _, s := range r.Samples {
			util = append(util, s.CPUS/(s.WallS*float64(nproc)))
		}
	}
	out["par.cpu_util"] = median(util)
	if o.traced != nil && len(o.traced.Samples) > 0 {
		out["trace.wall_ratio"] = o.traced.Samples[0].WallS / o.wall()
	}
	if t, k := out["serve.timing_p50_ms"], out["sta.update_incr_ms"]; t > 0 && k > 0 {
		out["serve.overhead_ms"] = t - k
	}
	return out
}

// metricValue and summary are the JSON last line's shapes.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary reports the end-to-end metrics, or with layers the per-layer
// ones.
func (o *outcome) summary(layers bool) summary {
	s := summary{
		Correct:   len(o.failures) == 0,
		Attempted: o.ops,
		Failed:    len(o.failures),
		Metrics:   make(map[string]metricValue),
	}
	if layers {
		vals := o.perLayer()
		for _, def := range perLayer {
			s.Metrics[def.name] = metricValue{finite(vals[def.name]), def.unit}
		}
		return s
	}
	samples := o.endToEnd()
	for _, def := range endToEnd {
		s.Metrics[def.name] = metricValue{finite(median(samples[def.name])), def.unit}
	}
	return s
}

// finite maps a NaN or infinite value (a ratio over an empty region) to
// 0, which JSON can carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// claimShare is an isolation claim with the share of wall_s its layer
// took in one run: the layer's median over the timed repetitions over
// their median wall_s.
type claimShare struct {
	isolationClaim
	share float64
}

func (c claimShare) met() bool { return c.share >= c.min && c.share <= c.max }

func (c claimShare) String() string {
	want := fmt.Sprintf("claim >= %.0f %%", 100*c.min)
	if c.max == 0 {
		want = "claim 0"
	}
	verdict := "met"
	if !c.met() {
		verdict = "NOT MET"
	}
	return fmt.Sprintf("%s is %.1f %% of wall_s (%s): %s", c.metric, 100*c.share, want, verdict)
}

// shares returns the run's isolation claims with their shares.
func (o *outcome) shares() []claimShare {
	var out []claimShare
	layer := o.perLayer()
	wall := o.wall()
	for _, c := range isolationClaims {
		if c.workload == o.workload {
			out = append(out, claimShare{c, layer[c.metric] / 1e3 / wall})
		}
	}
	return out
}

// print writes the run's human-readable report: every end-to-end metric
// with its unit, median and quartiles over the repetitions, then with
// layers every per-layer metric and the workload's isolation claims.
func (o *outcome) print(w io.Writer, layers bool) {
	traced := ""
	if o.traced != nil {
		traced = " + 1 traced"
	}
	values := o.endToEnd()
	fmt.Fprintf(w, "== %s: %d timed repetitions, %d samples%s, %d ops, %d failed, fail_frac %.4g\n",
		o.workload, len(o.timed), len(values["wall_s"]), traced, o.ops, len(o.failures), float64(len(o.failures))/float64(o.ops))
	for _, def := range endToEnd {
		xs := values[def.name]
		q1, m, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-26s %12.4f %-5s  median of %d, quartiles %.4f .. %.4f\n", def.name, m, def.unit, len(xs), q1, q3)
	}
	if layers {
		vals := o.perLayer()
		for _, def := range perLayer {
			fmt.Fprintf(w, "  %-26s %12.4f %-5s\n", def.name, finite(vals[def.name]), def.unit)
		}
		for _, c := range o.shares() {
			fmt.Fprintf(w, "  isolation: %s\n", c)
		}
	}
	for _, info := range o.timed[0].Info {
		fmt.Fprintf(w, "  %s\n", info)
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
