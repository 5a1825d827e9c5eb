package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
)

// Design-database codec benchmarks: the explicit per-field binary
// encoders against the obvious alternative — reflective JSON plus gzip —
// on a real mid-flow payload. The subject is netcard (the suite's
// largest netlist) saved at the placement boundary of the Hetero-M3D
// flow, i.e. exactly the bytes -save-design writes. Run with:
//
//	go test -run xxx -bench 'BenchmarkDB|BenchmarkJSONGzip' -benchtime 10x ./internal/core/
var benchDBScale = flag.Float64("db-scale", 0.25, "netcard scale for the design-database benchmarks")

var benchDBOnce struct {
	sync.Once
	data []byte // the saved post-place database file
	err  error
}

// benchDBBytes runs netcard through the Hetero-M3D flow up to the
// placement boundary once per process and returns the saved database.
func benchDBBytes(b *testing.B) []byte {
	b.Helper()
	benchDBOnce.Do(func() {
		dir, err := os.MkdirTemp("", "benchdb")
		if err != nil {
			benchDBOnce.err = err
			return
		}
		defer os.RemoveAll(dir)
		src, err := designs.Generate(designs.Netcard, lib12, designs.Params{Scale: *benchDBScale, Seed: 1})
		if err != nil {
			benchDBOnce.err = err
			return
		}
		path := filepath.Join(dir, "netcard.db")
		opt := DefaultOptions(testClock)
		opt.SaveDesign = path
		opt.SaveAfter = StagePlace
		opt.StopAfter = StagePlace
		if _, err := Run(context.Background(), src, ConfigHetero, opt); err != nil {
			benchDBOnce.err = err
			return
		}
		benchDBOnce.data, benchDBOnce.err = os.ReadFile(path)
	})
	if benchDBOnce.err != nil {
		b.Fatal(benchDBOnce.err)
	}
	return benchDBOnce.data
}

func BenchmarkDBEncode(b *testing.B) {
	data := benchDBBytes(b)
	dd, err := decodeDesignDB(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := encodeDesignDB(dd)
		if err != nil {
			b.Fatal(err)
		}
		if len(enc) != len(data) {
			b.Fatalf("non-canonical re-encode: %d vs %d bytes", len(enc), len(data))
		}
	}
}

func BenchmarkDBDecode(b *testing.B) {
	data := benchDBBytes(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeDesignDB(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSnapshot extracts the netlist snapshot from the saved database —
// the dominant payload — as the subject of the JSON baseline.
func benchSnapshot(b *testing.B) *netlist.Snapshot {
	b.Helper()
	dd, err := decodeDesignDB(benchDBBytes(b))
	if err != nil {
		b.Fatal(err)
	}
	return dd.snap
}

// BenchmarkJSONGzipEncode is the reflection baseline the binary format
// replaces: marshal the netlist snapshot with encoding/json and gzip
// the result. SetBytes uses the binary file size so MB/s is comparable
// across the four benchmarks; the compressed size itself is reported as
// a metric.
func BenchmarkJSONGzipEncode(b *testing.B) {
	data := benchDBBytes(b)
	snap := benchSnapshot(b)
	b.SetBytes(int64(len(data)))
	var gzSize, jsSize int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		js, err := json.Marshal(snap)
		if err != nil {
			b.Fatal(err)
		}
		jsSize = len(js)
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(js); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
		gzSize = buf.Len()
	}
	b.StopTimer()
	b.ReportMetric(float64(gzSize), "gz-bytes")
	b.ReportMetric(float64(jsSize), "json-bytes")
	b.ReportMetric(float64(len(data)), "db-bytes")
}

func BenchmarkJSONGzipDecode(b *testing.B) {
	data := benchDBBytes(b)
	js, err := json.Marshal(benchSnapshot(b))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(js); err != nil {
		b.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		b.Fatal(err)
	}
	gz := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			b.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := out.ReadFrom(zr); err != nil {
			b.Fatal(err)
		}
		var snap netlist.Snapshot
		if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
			b.Fatal(err)
		}
	}
}
