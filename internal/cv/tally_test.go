package cv

import (
	"sync"
	"testing"

	"simdstudy/internal/image"
	"simdstudy/internal/trace"
)

// opsAtInit is the intern table size once every package of this binary
// has initialized: init functions run after all package-level variables,
// the interned op IDs of neon, sse2 and cv included.
var opsAtInit int

func init() { opsAtInit = trace.NumOps() }

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestTracingNeverInterns: every instruction the kernels retire was
// interned at package init, inside the tally's dense range, so recording
// is an array increment and never takes the intern table's lock.
func TestTracingNeverInterns(t *testing.T) {
	if opsAtInit > trace.MaxOps {
		t.Fatalf("%d ops interned at init, past MaxOps %d", opsAtInit, trace.MaxOps)
	}
	before := trace.NumOps()
	res := image.Resolution{Width: 67, Height: 61, Name: "67x61"}
	for _, isa := range []ISA{ISANEON, ISASSE2, ISAScalar} {
		for _, workers := range []int{1, 3} {
			for _, fuse := range []bool{false, true} {
				for _, tc := range parCases() {
					o := NewOps(isa, &trace.Counter{})
					o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
					o.SetFuse(FuseConfig{Enabled: fuse})
					if _, err := tc.run(o, res); err != nil {
						t.Fatalf("%v/%s: %v", isa, tc.name, err)
					}
				}
			}
		}
	}
	if after := trace.NumOps(); after != before {
		t.Fatalf("kernels interned %d new ops while recording", after-before)
	}
}

// TestSharedTracedOpsCountsExact: goroutines sharing one traced Ops (its
// own units record under the counter's lock; passes tally on pooled
// clones) must account for exactly the sum of their calls.
func TestSharedTracedOpsCountsExact(t *testing.T) {
	res := image.Resolution{Width: 67, Height: 61, Name: "67x61"}
	src := image.Synthetic(res, 30)
	call := func(o *Ops) error {
		dst := image.NewMat(res.Width, res.Height, image.U8)
		if err := o.GaussianBlur(src, dst); err != nil {
			return err
		}
		return o.Threshold(src, dst, 97, 255, ThreshBinary)
	}
	for _, workers := range []int{1, 4} {
		one := &trace.Counter{}
		o := NewOps(ISANEON, one)
		o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
		if err := call(o); err != nil {
			t.Fatal(err)
		}

		const goroutines, iters = 6, 4
		shared := &trace.Counter{}
		so := NewOps(ISANEON, shared)
		so.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters && errs[g] == nil; i++ {
					errs[g] = call(so)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		want, got := one.Classes(), shared.Classes()
		for c := range want {
			if got[c] != goroutines*iters*want[c] {
				t.Errorf("w=%d %v: shared %d, want %d×%d", workers, trace.Class(c), got[c], goroutines*iters, want[c])
			}
		}
		if got, want := shared.Opcode("vmin.u8"), goroutines*iters*one.Opcode("vmin.u8"); got != want {
			t.Errorf("w=%d vmin.u8: shared %d, want %d", workers, got, want)
		}
	}
}

// TestUntracedCallAllocs pins what a nil-counter call allocates: nothing
// serially, and the band section's fixed cost when banded, the same for
// every ISA. Tracing lives in lazily allocated unit tallies and its band
// clones record only when the parent does, so the untraced path carries
// none of it.
func TestUntracedCallAllocs(t *testing.T) {
	res := image.Resolution{Width: 640, Height: 480}
	u8, f32 := image.Synthetic(res, 1), image.SyntheticF32(res, 1)
	d8, d16 := image.NewMat(640, 480, image.U8), image.NewMat(640, 480, image.S16)
	cases := []struct {
		isa     ISA
		workers int
		want    float64
	}{
		{ISANEON, 1, 0}, {ISASSE2, 1, 0}, {ISAScalar, 1, 0},
		{ISANEON, 2, 5}, {ISASSE2, 2, 5}, {ISAScalar, 2, 5},
	}
	for _, c := range cases {
		if c.workers > 1 && raceEnabled {
			continue // the race detector drops sync.Pool items at random
		}
		o := NewOps(c.isa, nil)
		o.SetParallel(ParallelConfig{Workers: c.workers})
		for name, call := range map[string]func(){
			"Threshold":       func() { o.Threshold(u8, d8, 128, 255, ThreshTrunc) },
			"ConvertF32ToS16": func() { o.ConvertF32ToS16(f32, d16) },
		} {
			if got := testing.AllocsPerRun(20, call); got != c.want {
				t.Errorf("%s %v w=%d: %v allocs per call, want %v", name, c.isa, c.workers, got, c.want)
			}
		}
	}
}
