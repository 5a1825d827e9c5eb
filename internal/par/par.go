// Package par is the repository's shared bounded-parallelism primitive
// for intra-flow kernels: a deterministic fan-out-fan-in loop with
// ordered result collection and panic capture.
//
// The determinism contract: ParallelFor promises nothing about the
// order work items *execute*, so a caller is deterministic exactly when
// each item writes only its own, index-addressed output and reads only
// state that is frozen for the duration of the call. Every kernel built
// on this package (place's bisection frontier, sta's per-level sweeps,
// route's per-net fan-out, cts's subtree partitioning) is structured
// that way, which is what makes flow results byte-identical at any
// worker count. Work items must not draw from a shared RNG — a stream
// consumed in scheduling order would differ run to run; seeds must be
// pre-split per item instead (the flow.AttemptSeed pattern).
//
// A conforming kernel writes only its own index-addressed slot and
// reduces after the barrier:
//
//	wls := make([]float64, len(nets))
//	par.ParallelFor(workers, len(nets), func(i int) {
//		wls[i] = length(nets[i]) // own slot; reads frozen state only
//	})
//	total := 0.0
//	for _, wl := range wls {
//		total += wl // ordered reduction, after all items finished
//	}
//
// The shape below violates the contract — the captured accumulator is
// written in schedule order, so the result depends on the interleaving
// (and loses updates outright). The pardet analyzer rejects it
// statically:
//
//	var total float64
//	par.ParallelFor(workers, len(nets), func(i int) {
//		total += length(nets[i]) // schedule-ordered shared write
//	})
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: non-positive means
// "automatic" (GOMAXPROCS), anything else is taken as given. Callers
// that fan out nested parallelism should budget with Budget instead of
// multiplying automatics together.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Budget derives the per-job inner worker count when outer jobs each
// fan out their own parallelism: total/outer, floored at 1, so
// outer × inner never exceeds the total budget (eval.RunSuite uses
// GOMAXPROCS as the total). A non-positive total means GOMAXPROCS.
func Budget(total, outer int) int {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	if outer < 1 {
		outer = 1
	}
	inner := total / outer
	if inner < 1 {
		inner = 1
	}
	return inner
}

// Stats accumulates fan-out counters for the engine-observability
// report: Batches counts ParallelFor/Do invocations, Tasks the work
// items they dispatched. Both are schedule-independent — the same at
// any worker count — so they are safe to surface in deterministic
// outputs. Note must be called from the coordinating goroutine (the
// methods are not atomic); a nil *Stats discards.
type Stats struct {
	Batches, Tasks int64
}

// Note records one fan-out of n work items.
func (s *Stats) Note(n int) {
	if s == nil {
		return
	}
	s.Batches++
	s.Tasks += int64(n)
}

// Add merges another counter set (used when draining kernel-local stats
// into a stage's flow counters).
func (s *Stats) Add(o Stats) {
	if s == nil {
		return
	}
	s.Batches += o.Batches
	s.Tasks += o.Tasks
}

// WorkerPanic wraps a panic raised inside a ParallelFor or Do work
// item. The panic is re-raised on the calling goroutine with this type
// as the value, so the flow engine's stage panic barrier attributes it
// like any other stage panic while keeping the worker's stack.
type WorkerPanic struct {
	// Item is the work-item index that panicked (the lowest, when
	// several did — chosen so the surfaced failure is deterministic).
	Item int
	// Value is the original panic value.
	Value interface{}
	// Stack is the panicking worker's stack trace.
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic on item %d: %v\n%s", p.Item, p.Value, p.Stack)
}

// ParallelFor executes fn(i) for every i in [0, n) on at most workers
// concurrently running goroutines and returns when all items finished.
// Workers claim contiguous blocks of about n/(claimsPerWorker·workers)
// items, one atomic add per block, so cheap items (STA nodes, per-net
// extraction) do not each pay a contended claim. Up to claimsPerWorker
// items per worker every claim is one item, so few heavy, uneven items
// (bisection regions, Do's functions) still load-balance. workers <= 1
// or n <= 1 runs inline with no goroutines.
//
// A panicking item does not abort its siblings (every claimed item
// runs); once all workers drain, the panic from the lowest-indexed
// failing item is re-raised on the caller as a *WorkerPanic — on the
// serial path too, so failure surfaces identically at any worker count.
func ParallelFor(workers, n int, fn func(int)) {
	parallelFor(workers, n, fn, nil)
}

// ParallelForWorker is ParallelFor that also tells each item which
// worker runs it: worker is in [0, max(1, min(workers, n))), and no two
// items with the same worker run at once, so fn may use per-worker
// scratch indexed by it without locking. Which worker claims which item
// depends on the schedule; results must not.
func ParallelForWorker(workers, n int, fn func(worker, i int)) {
	parallelFor(workers, n, nil, fn)
}

// claimsPerWorker is how many blocks ParallelFor cuts per worker. Fewer,
// larger blocks leave a worker idle behind a sibling's last block; more,
// smaller ones bring back the per-claim cost on the shared counter. On
// netcard's STA level sweeps (4–6 levels of ~30 k nodes at ~0.5 µs
// each) at 2 workers, 4 to 64 time alike and 128 is slower; one claim
// per item made two workers slower than one.
const claimsPerWorker = 32

// parallelFor runs fn(i), or fnw(worker, i) when fn is nil, for every
// i in [0, n).
func parallelFor(workers, n int, fn func(int), fnw func(int, int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	var (
		mu    sync.Mutex
		first *WorkerPanic
	)
	record := func(i int, v interface{}) {
		mu.Lock()
		if first == nil || i < first.Item {
			buf := make([]byte, 64<<10)
			first = &WorkerPanic{Item: i, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
		mu.Unlock()
	}
	run := func(w, i int) {
		defer func() {
			if v := recover(); v != nil {
				record(i, v)
			}
		}()
		if fn != nil {
			fn(i)
		} else {
			fnw(w, i)
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(0, i)
		}
	} else {
		block := max(1, n/(claimsPerWorker*workers))
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					lo := int(next.Add(int64(block))) - block
					if lo >= n {
						return
					}
					for i := lo; i < min(lo+block, n); i++ {
						run(w, i)
					}
				}
			}()
		}
		wg.Wait()
	}
	if first != nil {
		panic(first)
	}
}

// Do runs the given functions, concurrently when workers > 1, and
// returns when all finished — the two-or-three-way fork for recursive
// kernels (cts subtree construction). Panic semantics match
// ParallelFor: the lowest-indexed panicking function wins.
func Do(workers int, fns ...func()) {
	ParallelFor(workers, len(fns), func(i int) { fns[i]() })
}
