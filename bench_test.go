// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its artifact from scratch and
// prints it, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The design scale defaults to 0.25 of
// the paper's netlist sizes to keep a full sweep in CI territory; pass
//
//	go test -bench=. -scale=1.0
//
// for paper-scale runs (netcard ≈ 250 k cells — minutes per config, pure
// Go). The suite (f_max sweeps + 5 configurations × 4 designs) is built
// once and shared by the table benchmarks.
package repro_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/eval"
	"repro/internal/report"
)

var (
	benchScale = flag.Float64("scale", 0.25, "design scale for the benchmark suite (1.0 = paper size)")
	benchSeed  = flag.Int64("benchseed", 1, "generation/partition seed")
	svgDir     = flag.String("svgdir", "", "directory for Fig. 3/4 SVGs (empty = skip files)")
)

var (
	suiteOnce sync.Once
	suiteVal  *eval.Suite
	suiteErr  error
)

// suite builds the full evaluation exactly once per `go test` process.
func suite(b *testing.B) *eval.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		opt := eval.DefaultSuiteOptions(*benchScale)
		opt.Seed = *benchSeed
		opt.Events = &eval.LogSink{W: os.Stderr}
		suiteVal, suiteErr = eval.RunSuite(context.Background(), opt)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

func printOnce(b *testing.B, artifact string) {
	if b.N > 0 {
		fmt.Println(artifact)
	}
}

// BenchmarkFig1 renders the five-configuration diagram.
func BenchmarkFig1(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Fig1()
	}
	printOnce(b, out)
}

// BenchmarkTableI regenerates the qualitative PPAC ranking from measured
// data.
func BenchmarkTableI(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = s.TableI().String()
	}
	printOnce(b, out)
}

// BenchmarkTableII runs the FO-4 driver-output boundary experiment
// (Fig. 2a) on the switch-level simulator.
func BenchmarkTableII(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		t, err := eval.TableII()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	printOnce(b, out)
}

// BenchmarkTableIII runs the FO-4 driver-input boundary experiment
// (Fig. 2b).
func BenchmarkTableIII(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		t, err := eval.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	printOnce(b, out)
}

// BenchmarkTableIV evaluates the cost model.
func BenchmarkTableIV(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = eval.TableIV().String()
	}
	printOnce(b, out)
}

// BenchmarkTableV runs the flow ablation: the plain Pin-3D flow against
// the suite's Hetero-Pin-3D CPU record.
func BenchmarkTableV(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := s.TableV()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	printOnce(b, out)
}

// BenchmarkTableVI renders the raw heterogeneous PPAC of all four
// designs.
func BenchmarkTableVI(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = s.TableVI().String()
	}
	printOnce(b, out)
}

// BenchmarkTableVII renders the hetero-vs-homogeneous percent deltas.
func BenchmarkTableVII(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = s.TableVII().String()
	}
	printOnce(b, out)
}

// BenchmarkTableVIII renders the CPU clock/critical-path/memory deep
// dive.
func BenchmarkTableVIII(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := s.TableVIII()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	printOnce(b, out)
}

// BenchmarkFig3 regenerates the CPU placement/density views (ASCII here;
// SVGs when -svgdir is set).
func BenchmarkFig3(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		f, err := s.Fig3(*svgDir)
		if err != nil {
			b.Fatal(err)
		}
		out = f
	}
	printOnce(b, out)
}

// BenchmarkFig4 regenerates the clock/memory/critical-path overlays.
func BenchmarkFig4(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		f, err := s.Fig4(*svgDir)
		if err != nil {
			b.Fatal(err)
		}
		out = f
	}
	printOnce(b, out)
}

// BenchmarkSuite measures the cost of one full evaluation (f_max sweeps
// plus 20 flow runs) at a small scale, independent of the shared suite.
func BenchmarkSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := eval.DefaultSuiteOptions(0.02)
		opt.Designs = []designs.Name{designs.AES}
		if _, err := eval.RunSuite(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}
