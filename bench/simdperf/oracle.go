package simdperf

import (
	"context"
	"fmt"
	"sync"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
	"simdstudy/internal/trace"
)

// key is one distinct output: (kernel, ISA, image seed) at the workload's
// geometry.
type key struct {
	Kernel, ISA string
	Seed        uint64
}

func keyOf(r Request) key { return key{r.Kernel, r.ISA, r.Seed} }

// oracleWorkers is how many references are recomputed at once.
const oracleWorkers = 2

// forEachKey runs fn for every key on oracleWorkers goroutines and returns
// once all have finished.
func forEachKey(keys []key, fn func(key)) {
	ch := make(chan key)
	var wg sync.WaitGroup
	for i := 0; i < oracleWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				fn(k)
			}
		}()
	}
	for _, k := range keys {
		ch <- k
	}
	close(ch)
	wg.Wait()
}

func distinctKeys(results []Result, pred func(Result) bool) []key {
	seen := map[key]bool{}
	var keys []key
	for _, r := range results {
		k := keyOf(r.Req)
		if pred(r) && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// serveReference is the expected response checksum of one serving
// request: the kernel run on a fresh serial, unfused, unguarded Ops.
// Banded, fused, guarded and memoized responses must all equal it byte
// for byte.
func serveReference(k key, w, h int) (uint64, error) {
	spec, ok := serveKernels[k.Kernel]
	if !ok {
		return 0, fmt.Errorf("unknown kernel %q", k.Kernel)
	}
	isa, ok := isaByName[k.ISA]
	if !ok {
		return 0, fmt.Errorf("unknown isa %q", k.ISA)
	}
	src := synthesize(spec.srcKind, w, h, k.Seed)
	dst := spec.newDst(w, h)
	if err := spec.run(context.Background(), cv.NewOps(isa, nil), src, dst); err != nil {
		return 0, err
	}
	return checksum(dst), nil
}

// verifyServing checks every 200 response of each set against its
// reference, computed once per distinct key across the sets, and marks
// the ones that differ. It returns how many it marked.
func verifyServing(w, h int, sets ...[]Result) (int, error) {
	var all []Result
	for _, set := range sets {
		all = append(all, set...)
	}
	keys := distinctKeys(all, func(r Result) bool { return r.Code == 200 })
	refs := make(map[key]uint64, len(keys))
	var mu sync.Mutex
	var firstErr error
	forEachKey(keys, func(k key) {
		sum, err := serveReference(k, w, h)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("reference %v: %w", k, err)
		}
		refs[k] = sum
	})
	if firstErr != nil {
		return 0, firstErr
	}
	bad := 0
	for _, set := range sets {
		for i := range set {
			r := &set[i]
			if r.Code != 200 {
				if r.Bad == "" {
					r.Bad = fmt.Sprintf("status %d", r.Code)
				}
				continue
			}
			if want := refs[keyOf(r.Req)]; r.Checksum != want {
				r.Bad = fmt.Sprintf("checksum %x, reference %x", r.Checksum, want)
				bad++
			}
		}
	}
	return bad, nil
}

// paperRef is the expected outcome of one traced paper call: the trace
// summary and output checksum of a serial call on the same input.
type paperRef struct {
	summary string
	sum     uint64
}

// paperInputs is the paper's 5-image 640x480 burst in both source kinds.
type paperInputs struct {
	u8, f32 []*image.Mat
}

func newPaperInputs(w, h int) paperInputs {
	res := image.Resolution{Width: w, Height: h}
	return paperInputs{u8: image.Burst(res, int(paperImages)), f32: image.BurstF32(res, int(paperImages))}
}

func (p paperInputs) src(b paperBench, img uint64) *image.Mat {
	if b.srcKind == image.F32 {
		return p.f32[img-1]
	}
	return p.u8[img-1]
}

// paperCall runs one traced paper kernel call with the given band count on
// a fresh Ops and trace counter.
func paperCall(in paperInputs, r Request, workers int) (*trace.Counter, *image.Mat, error) {
	b, ok := paperBenchNamed(r.Kernel)
	if !ok {
		return nil, nil, fmt.Errorf("unknown bench %q", r.Kernel)
	}
	src := in.src(b, r.Seed)
	tr := &trace.Counter{}
	o := cv.NewOps(isaByName[r.ISA], tr)
	o.SetParallel(cv.ParallelConfig{Workers: workers})
	dst := image.NewMat(src.Width, src.Height, b.dstKind)
	return tr, dst, b.run(o, src, dst)
}

// paperReferences computes the serial reference for every (bench, ISA,
// image) of the workload. Per-band counter merging must reproduce the
// serial summary exactly.
func paperReferences(wl Workload, in paperInputs) (map[key]paperRef, error) {
	var keys []key
	for _, b := range wl.Kernels {
		for _, isa := range wl.ISAs {
			for img := uint64(1); img <= wl.Seeds; img++ {
				keys = append(keys, key{b, isa, img})
			}
		}
	}
	refs := make(map[key]paperRef, len(keys))
	var mu sync.Mutex
	var firstErr error
	forEachKey(keys, func(k key) {
		tr, dst, err := paperCall(in, Request{Kernel: k.Kernel, ISA: k.ISA, Seed: k.Seed}, 1)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("reference %v: %w", k, err)
			}
			return
		}
		refs[k] = paperRef{summary: tr.Summary(), sum: checksum(dst)}
	})
	return refs, firstErr
}

// verifyPaper checks every traced call's summary and output checksum
// against the reference and marks the ones that differ.
func verifyPaper(results []Result, refs map[key]paperRef) int {
	bad := 0
	for i := range results {
		r := &results[i]
		if r.Code != 200 {
			continue
		}
		ref, ok := refs[keyOf(r.Req)]
		switch {
		case !ok:
			r.Bad = "no reference"
		case r.Checksum != ref.sum:
			r.Bad = fmt.Sprintf("checksum %x, reference %x", r.Checksum, ref.sum)
		case r.Trace.Summary() != ref.summary:
			r.Bad = "trace summary differs from the serial reference"
		default:
			continue
		}
		bad++
	}
	return bad
}
