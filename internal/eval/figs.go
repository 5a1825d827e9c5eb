package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/report"
	"repro/internal/sta"
	"repro/internal/tech"
)

// figureConfigs are the CPU flows the figures draw: Fig. 3 all three,
// Fig. 4 the last two. They are the only flows whose records keep a
// layout.
var figureConfigs = []core.ConfigName{core.Config2D9T, core.Config2D12T, core.ConfigHetero}

// Layout is what the figures draw of one flow: the implemented design,
// its die outline, and its worst timing path (nil if it has none).
type Layout struct {
	Design    *netlist.Design
	Outline   geom.Rect
	WorstPath *sta.Path
}

// layoutOf keeps what the figures draw of a finished flow; nil for a
// flow no figure draws.
func layoutOf(design designs.Name, cfg core.ConfigName, r *core.Result) *Layout {
	if design != designs.CPU || !slices.Contains(figureConfigs, cfg) {
		return nil
	}
	l := &Layout{Design: r.Design, Outline: r.Outline}
	if paths := r.Timing.CriticalPaths(1); len(paths) > 0 {
		l.WorstPath = &paths[0]
	}
	return l
}

// Fig3 regenerates the paper's Fig. 3 views for the CPU: placement
// density heatmaps (returned as text) and per-tier layout SVGs written to
// dir (skipped when dir is empty). The 2-D 9-track, 2-D 12-track, and
// heterogeneous implementations are rendered; in the hetero SVGs the two
// tiers show the different cell heights.
func (s *Suite) Fig3(dir string) (string, error) {
	out := "Fig. 3 — CPU placement density (darker = denser)\n"
	for _, cfg := range figureConfigs {
		r, ok := s.Results[designs.CPU][cfg]
		if !ok {
			return "", fmt.Errorf("eval: Fig. 3 needs the CPU in %s", cfg)
		}
		l := r.Layout
		if l == nil {
			out += fmt.Sprintf("\n[%s] restored from checkpoint — no live layout to render (rerun without -checkpoint for figures)\n", cfg)
			continue
		}
		tiers := cfg.Tiers()
		for ti := 0; ti < tiers; ti++ {
			hist, err := place.DensityMap(l.Design, l.Outline, tech.Tier(ti), tiers, 48, 24)
			if err != nil {
				return "", err
			}
			label := string(cfg)
			if tiers == 2 {
				label += fmt.Sprintf(" tier-%d (%s)", ti, tech.Tier(ti))
			}
			out += "\n[" + label + "]\n" + report.AsciiDensity(hist)

			if dir != "" {
				svg := &report.LayoutSVG{
					Design:  l.Design,
					Outline: l.Outline,
					Tier:    tech.Tier(ti),
					Tiers:   tiers,
				}
				name := fmt.Sprintf("fig3_%s_tier%d.svg", cfg, ti)
				if err := writeSVG(filepath.Join(dir, name), svg); err != nil {
					return "", err
				}
				out += "  → " + filepath.Join(dir, name) + "\n"
			}
		}
	}
	return out, nil
}

// Fig4 regenerates the Fig. 4 overlays for the CPU — clock tree, memory
// nets, and critical path — over the 2-D 12-track and heterogeneous
// layouts. SVGs go to dir; a text summary is returned. The critical-path
// line comes from the record's deep dive, so a restored record prints it
// too.
func (s *Suite) Fig4(dir string) (string, error) {
	out := "Fig. 4 — CPU clock tree / memory nets / critical path overlays\n"
	for _, cfg := range figureConfigs[1:] {
		r, ok := s.Results[designs.CPU][cfg]
		if !ok {
			return "", fmt.Errorf("eval: Fig. 4 needs the CPU in %s", cfg)
		}
		l := r.Layout
		var memIn, memOut report.Overlay
		if l == nil {
			out += fmt.Sprintf("  [%s] restored from checkpoint — no live layout to render (rerun without -checkpoint for figures)\n", cfg)
		} else {
			memIn, memOut = report.MemoryOverlay(l.Design)
			tiers := cfg.Tiers()
			for ti := 0; ti < tiers && dir != ""; ti++ {
				overlays := []report.Overlay{
					report.ClockOverlay(l.Design, tiers, tech.Tier(ti)),
					memIn, memOut,
				}
				if l.WorstPath != nil {
					overlays = append(overlays, report.PathOverlay(*l.WorstPath))
				}
				svg := &report.LayoutSVG{
					Design:   l.Design,
					Outline:  l.Outline,
					Tier:     tech.Tier(ti),
					Tiers:    tiers,
					Overlays: overlays,
				}
				name := fmt.Sprintf("fig4_%s_tier%d.svg", cfg, ti)
				if err := writeSVG(filepath.Join(dir, name), svg); err != nil {
					return "", err
				}
				out += "  → " + filepath.Join(dir, name) + "\n"
			}
		}
		if d := r.Dive; d != nil && d.PathCells > 0 {
			out += fmt.Sprintf("  [%s] critical path: %d cells, %.1f µm, slack %+.3f ns\n",
				cfg, d.PathCells, d.PathWLum, d.SlackNS)
		}
		if l != nil {
			out += fmt.Sprintf("  [%s] clock nets: %d overlays, memory nets: %d in / %d out\n",
				cfg, 1, len(memIn.Lines), len(memOut.Lines))
		}
	}
	return out, nil
}

func writeSVG(path string, svg *report.LayoutSVG) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return svg.Write(f)
}
