package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// maxBound is the largest bound BENCHMARK.json may give a metric.
const maxBound = 0.25

// boundRule states how boundFor turns measured noise into a bound; the
// calibration report carries it next to the bounds.
const boundRule = "bound = 3 x the worst spread of any workload and set, at least 0.03, at most 0.25, " +
	"rounded up to a whole percent; setup_s takes the largest bound of all"

// boundFor is the rule's bound for a metric whose worst spread is noise:
// three times it, so that a spread stays under a third of its bound.
func boundFor(noise float64) float64 {
	b := math.Ceil(300*noise-1e-9) / 100
	return math.Min(math.Max(b, 0.03), maxBound)
}

// targetBoundFor is the tighter rule the bounds were first meant to
// follow: twice the spread, at least 3 %, capped at targetCap. The report
// records whether every metric fits under that cap.
func targetBoundFor(noise float64) float64 { return math.Max(2*noise, 0.03) }

const targetCap = 0.10

// calibration is the noise report --calibrate prints; bench/calibration.json
// holds the one BENCHMARK.json's bounds are copied from.
type calibration struct {
	Host struct {
		NProc int    `json:"nproc"`
		CPU   string `json:"cpu"`
		Go    string `json:"go"`
	} `json:"host"`
	Seconds float64 `json:"run_seconds"`
	Seeds   int     `json:"seeds"`
	// Order says how the two sets' runs were interleaved.
	Order string `json:"order"`
	// Workloads maps workload → end-to-end metric → the two sets.
	Workloads map[string]map[string]*calibCell `json:"workloads"`
	Rule      string                           `json:"rule"`
	Bounds    map[string]float64               `json:"bounds"`
	// Agree: every cell is within its bound.
	Agree bool `json:"agree_within_bounds"`
	// TargetBounds are the bounds targetBoundFor gives; TargetCapMet says
	// whether all of them are at most targetCap.
	TargetBounds map[string]float64 `json:"target_rule_bounds"`
	TargetCapMet bool               `json:"target_cap_met"`
	Isolation    []*isolationCell   `json:"isolation"`
}

type calibCell struct {
	SetA    []float64 `json:"set_a"`
	SetB    []float64 `json:"set_b"`
	MedianA float64   `json:"median_a"`
	MedianB float64   `json:"median_b"`
	SpreadA float64   `json:"spread_a"`
	SpreadB float64   `json:"spread_b"`
	// WorseBy is how much worse the worse set's median is than the
	// other's, as a share of the other's.
	WorseBy float64 `json:"worse_by"`
	// Within: neither median worse than the other's by more than the
	// metric's bound and, setup_s aside, both spreads within it.
	Within bool `json:"within"`
	// Steady: both spreads under a third of the bound.
	Steady bool `json:"steady"`
}

// isolationCell is one isolation claim over every calibration run.
type isolationCell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Min      float64   `json:"min_share"`
	Max      float64   `json:"max_share"`
	Shares   []float64 `json:"shares"`
	Met      bool      `json:"met"`
}

// calibrate measures every end-to-end metric of the named workloads over
// seeds 1..seeds, twice, each value the median of one run as the
// benchmark reports it. The two sets alternate run by run, so a slow
// spell of the host falls on both alike. It derives each metric's bound
// from the measured spreads, checks the sets against those bounds and
// every isolation claim against every run, and prints the report as JSON.
func calibrate(names []string, seeds int, seconds float64, stdout io.Writer) error {
	c := calibration{Seconds: seconds, Seeds: seeds, Rule: boundRule, Agree: true, TargetCapMet: true,
		Order:     "per workload, per seed: set A then set B",
		Workloads: make(map[string]map[string]*calibCell), Bounds: make(map[string]float64),
		TargetBounds: make(map[string]float64)}
	c.Host.NProc, c.Host.CPU, c.Host.Go = nproc, cpuModel(), runtime.Version()
	for _, w := range names {
		cells := make(map[string]*calibCell)
		c.Workloads[w] = cells
		var iso []*isolationCell
		for _, cl := range isolationClaims {
			if cl.workload == w {
				iso = append(iso, &isolationCell{Workload: w, Metric: cl.metric, Min: cl.min, Max: cl.max, Met: true})
			}
		}
		c.Isolation = append(c.Isolation, iso...)
		for s := 1; s <= seeds; s++ {
			for set := 0; set < 2; set++ {
				o, err := runWorkload(w, int64(s), seconds, minReps, false, 0)
				if err != nil {
					return err
				}
				if len(o.failures) > 0 {
					return fmt.Errorf("%s seed %d: %s", w, s, o.failures[0])
				}
				for metric, xs := range o.endToEnd() {
					if cells[metric] == nil {
						cells[metric] = &calibCell{}
					}
					if set == 0 {
						cells[metric].SetA = append(cells[metric].SetA, median(xs))
					} else {
						cells[metric].SetB = append(cells[metric].SetB, median(xs))
					}
				}
				for i, sh := range o.shares() {
					iso[i].Shares = append(iso[i].Shares, sh.share)
					iso[i].Met = iso[i].Met && sh.met()
				}
				fmt.Fprintf(os.Stderr, "calibrate: %s seed %d set %c: wall_s %.3f\n", w, s, 'A'+set, median(o.endToEnd()["wall_s"]))
			}
		}
	}

	noise := make(map[string]float64)
	for _, cells := range c.Workloads {
		for metric, cell := range cells {
			cell.MedianA, cell.MedianB = median(cell.SetA), median(cell.SetB)
			cell.SpreadA, cell.SpreadB = spread(cell.SetA), spread(cell.SetB)
			noise[metric] = math.Max(noise[metric], math.Max(cell.SpreadA, cell.SpreadB))
		}
	}
	for _, def := range endToEnd {
		c.Bounds[def.name] = boundFor(noise[def.name])
		c.TargetBounds[def.name] = targetBoundFor(noise[def.name])
		c.TargetCapMet = c.TargetCapMet && c.TargetBounds[def.name] <= targetCap
	}
	for _, b := range c.Bounds {
		c.Bounds["setup_s"] = math.Max(c.Bounds["setup_s"], b)
	}
	for _, cells := range c.Workloads {
		for _, def := range endToEnd {
			cell, bound := cells[def.name], c.Bounds[def.name]
			worst := math.Max(cell.SpreadA, cell.SpreadB)
			cell.WorseBy = math.Max(worseBy(cell.SetA, cell.SetB, def.better), worseBy(cell.SetB, cell.SetA, def.better))
			cell.Within = cell.WorseBy <= bound && (def.name == "setup_s" || worst <= bound)
			cell.Steady = 3*worst <= bound
			c.Agree = c.Agree && cell.Within
		}
	}
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// cpuModel reads the host's CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
