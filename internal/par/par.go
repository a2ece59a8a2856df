// Package par is the row-banded parallel executor behind the kernel
// library's multi-core mode.
//
// The paper measures single-core SIMD speedups; serving that workload "as
// fast as the hardware allows" (ROADMAP north star) additionally requires
// using every core without perturbing any of the quantities the
// reproduction measures. The executor therefore deals only in *bands*:
// deterministic, layout-stable partitions of a kernel's row (or element)
// space. Who executes a band is a scheduling detail; what a band computes —
// pixels written, instructions recorded, fault opportunities drawn — is a
// pure function of the band's span, so merged results are independent of
// worker count and interleaving.
//
// Three pieces live here:
//
//   - Config and the band geometry helpers (NBands, Span): pure
//     arithmetic shared by every call site so cv, exec and serve all agree
//     on band layout. A flat kernel bands over element blocks by calling
//     Span on its block count.
//   - Run, a fixed worker pool sized to GOMAXPROCS with inline-overflow:
//     submitting more bands than there are free workers never queues more
//     than a bounded amount — the caller runs excess bands itself. Nested
//     parallel sections (grid cells x intra-kernel bands, concurrent HTTP
//     requests) therefore compose without oversubscribing the machine: the
//     pool is global and capacity-bounded, and every caller always makes
//     progress on its own goroutine.
//   - GetMat/PutMat, the plane recycler behind every scratch, source and
//     destination plane a request touches, so steady-state serving does
//     not allocate planes. Checked-out plus idle planes are capped at
//     twice the most bytes the process has ever had checked out at once
//     (planes.go).
//
// Run's workers must only execute leaf work: a band body must never call
// Run itself (directly or via a kernel), or pool workers could block waiting
// on pool capacity. All in-tree band bodies are leaf row/element loops.
package par

import (
	"runtime"
	"sync"
)

// Config sizes a parallel section.
type Config struct {
	// Workers caps how many bands a kernel call is split into. 1 (or any
	// value below 1 when explicitly normalized) runs serial; values above
	// the machine's core count are allowed but cannot create more
	// concurrency than the global pool admits.
	Workers int
	// MinRowsPerBand is the smallest band worth dispatching, in rows (or
	// element quanta for flat kernels). Small images run on fewer bands so
	// per-band overhead cannot dominate. Zero means DefaultMinRows.
	MinRowsPerBand int
}

// DefaultMinRows is the default minimum band height.
const DefaultMinRows = 16

// Normalized fills defaults: Workers<=0 becomes GOMAXPROCS,
// MinRowsPerBand<=0 becomes DefaultMinRows.
func (c Config) Normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinRowsPerBand <= 0 {
		c.MinRowsPerBand = DefaultMinRows
	}
	return c
}

// NBands returns how many bands to split units of work into: at most
// workers, at least one, and never so many that a band falls below
// minPerBand units.
func NBands(units, workers, minPerBand int) int {
	if workers < 1 {
		workers = 1
	}
	if minPerBand < 1 {
		minPerBand = 1
	}
	n := units / minPerBand
	if n > workers {
		n = workers
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Span returns the half-open range [lo, hi) covered by band i of n over
// total units. Bands differ in size by at most one unit, earlier bands
// taking the excess; the layout depends only on (i, n, total).
func Span(i, n, total int) (lo, hi int) {
	base, rem := total/n, total%n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// --- The fixed worker pool ---

type task struct {
	st   *runState
	band int
	wg   *sync.WaitGroup
}

var (
	poolOnce sync.Once
	tasks    chan task
)

func startPool() {
	n := runtime.GOMAXPROCS(0)
	tasks = make(chan task, n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range tasks {
				t.st.run(t.band)
				t.wg.Done()
			}
		}()
	}
}

type runState struct {
	fn func(int)

	mu     sync.Mutex
	panics []any // lazily allocated, indexed by band
	nBands int
}

func (s *runState) run(band int) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if s.panics == nil {
				s.panics = make([]any, s.nBands)
			}
			s.panics[band] = r
			s.mu.Unlock()
		}
	}()
	s.fn(band)
}

// Run executes fn(0) .. fn(n-1), using the global worker pool for bands the
// pool has capacity for and the calling goroutine for the rest (band 0 always
// runs on the caller). It returns only after every band has finished.
//
// Panics raised by bands are captured, not propagated; the returned slice is
// nil when no band panicked, else indexed by band with nil entries for clean
// bands. Callers own repanic policy — the kernel library filters its
// stop-sentinel before rethrowing the lowest-band real panic.
func Run(n int, fn func(band int)) []any {
	if n <= 0 {
		return nil
	}
	st := &runState{fn: fn, nBands: n}
	if n == 1 {
		st.run(0)
		return st.panics
	}
	poolOnce.Do(startPool)
	var wg sync.WaitGroup
	var inline []int
	for i := 1; i < n; i++ {
		wg.Add(1)
		select {
		case tasks <- task{st, i, &wg}:
		default:
			// Pool saturated: this band runs on the caller, after band 0,
			// preserving progress without queueing unboundedly.
			wg.Done()
			inline = append(inline, i)
		}
	}
	st.run(0)
	for _, i := range inline {
		st.run(i)
	}
	wg.Wait()
	return st.panics
}

// FirstPanic returns the first non-nil panic value from a Run result in
// band order, skipping values the sentinel filter reports as scheduler
// tokens (a nil filter skips nothing). It is the shared triage step of
// every caller's repanic policy: the kernel library filters its
// stop-sentinel here before handing the survivor to the supervisor, and
// the loop executor wraps the survivor in a typed error.
func FirstPanic(panics []any, sentinel func(any) bool) any {
	for _, p := range panics {
		if p == nil {
			continue
		}
		if sentinel != nil && sentinel(p) {
			continue
		}
		return p
	}
	return nil
}
