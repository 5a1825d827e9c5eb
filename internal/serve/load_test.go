package serve

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestPercentile pins the nearest-rank definition the load report uses.
func TestPercentile(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(samples)
	if s.P50 != 50*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P99 != 99*time.Millisecond {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("max = %v", s.Max)
	}
	if z := summarize(nil); z.Count != 0 || z.P99 != 0 {
		t.Errorf("empty summary = %+v", z)
	}
	one := summarize([]time.Duration{7 * time.Millisecond})
	if one.P50 != 7*time.Millisecond || one.P99 != 7*time.Millisecond {
		t.Errorf("single-sample summary = %+v", one)
	}
}

// TestLoadHarness is the acceptance load test: hundreds of concurrent
// session lifecycles over loopback with zero protocol errors and zero
// goroutine leaks. -short runs a reduced fleet.
func TestLoadHarness(t *testing.T) {
	sessions := 500
	if testing.Short() {
		sessions = 64
	}
	before := runtime.NumGoroutine()

	srv, addr := startServer(t, Options{MaxSessions: 64})
	rep, err := RunLoad(context.Background(), LoadOptions{
		Addr:        addr,
		Sessions:    sessions,
		Concurrency: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.Summary())

	if rep.Errors != 0 {
		t.Fatalf("%d protocol errors; first: %v", rep.Errors, rep.FirstErrors)
	}
	if rep.Sessions != sessions {
		t.Fatalf("completed %d of %d sessions", rep.Sessions, sessions)
	}
	wantOps := sessions * (2 + 2*rep.Opt.Rounds) // open + close + rounds×(mutate+timing)
	if rep.Ops != wantOps {
		t.Fatalf("ops = %d, want %d", rep.Ops, wantOps)
	}
	if rep.Timing.Count != sessions*rep.Opt.Rounds {
		t.Fatalf("timing ops = %d, want %d", rep.Timing.Count, sessions*rep.Opt.Rounds)
	}
	if rep.Open.P99 <= 0 || rep.Timing.P99 <= 0 {
		t.Fatalf("degenerate latency stats: %+v", rep)
	}

	// Every slot must come back, and — after the active conns from the
	// fleet unwind — so must every goroutine.
	deadline := time.Now().Add(10 * time.Second)
	for srv.ActiveSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d admission slots still held after the fleet finished", srv.ActiveSessions())
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitGoroutines(t, before+2) // the server's accept loop + Serve goroutine are still up
}
