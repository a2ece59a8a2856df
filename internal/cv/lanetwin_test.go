package cv

import (
	"fmt"
	"strings"
	"testing"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/trace"
	"simdstudy/internal/vec"
)

// nopInjector leaves every value and address as it is. Attaching it forces
// the instrumented bodies without changing a result.
type nopInjector struct{}

func (nopInjector) V128(_ faults.Site, v vec.V128) vec.V128 { return v }
func (nopInjector) V64(_ faults.Site, v vec.V64) vec.V64    { return v }
func (nopInjector) Skew(faults.Site, int) int               { return 0 }

// laneRun is one kernel call on a fresh Ops, returning its output plane.
type laneRun func(tc *trace.Counter, inj faults.Injector) (*image.Mat, error)

// checkLaneTwins holds a kernel's lane twins to its instrumented bodies:
// the plain twins (no injector, untraced) write the plane the instrumented
// path (a no-op injector) writes, and so do the plain twins followed by
// their skeletons (a traced Ops, whose tallies bind), which flush exactly
// the per-op counts the instrumented bodies record (a counter capturing a
// sequence, whose tallies refuse to bind).
func checkLaneTwins(t *testing.T, what string, run laneRun) {
	t.Helper()
	twin, errT := run(nil, nil)
	inst, errI := run(nil, nopInjector{})
	if (errT == nil) != (errI == nil) {
		t.Fatalf("%s: twin error %v, instrumented error %v", what, errT, errI)
	}
	if errT != nil {
		return
	}
	if !twin.EqualTo(inst) {
		t.Fatalf("%s: %d pixels differ between the twin and instrumented paths", what, twin.DiffCount(inst, 0))
	}
	counted, listed := &trace.Counter{}, &trace.Counter{SeqCap: 1}
	traced, err := run(counted, nil)
	if err != nil {
		t.Fatalf("%s traced: %v", what, err)
	}
	if !traced.EqualTo(inst) {
		t.Fatalf("%s: %d pixels differ between the traced twin and instrumented paths", what, traced.DiffCount(inst, 0))
	}
	if _, err := run(listed, nil); err != nil {
		t.Fatalf("%s listed: %v", what, err)
	}
	if got, want := counted.Summary(), listed.Summary(); got != want {
		t.Fatalf("%s: lane twins and skeletons record\n%s\ninstrumented bodies record\n%s", what, got, want)
	}
}

// TestLaneTwinsMatchInstrumented: for every served kernel on NEON and SSE2,
// over widths around the 8- and 16-lane quanta, heights with and without
// an interior, one and four workers, fused and staged, the lane twins are
// indistinguishable from the instrumented bodies in planes and counts.
// That covers every skeleton: the row and flat-chunk ones, the ones fused
// Canny and DetectEdges sweeps run, the median rows counting their
// networks, and RGBToGray's chunk.
func TestLaneTwinsMatchInstrumented(t *testing.T) {
	for ki, k := range fuzzKernels {
		for _, isa := range []ISA{ISANEON, ISASSE2} {
			for _, w := range []int{1, 7, 8, 9, 17, 641} {
				for _, h := range []int{1, 3, 480} {
					if raceEnabled && w == 641 && h == 480 {
						// The race build hunts data races, which the narrow
						// 480-row planes band as well; the full VGA plane
						// costs it minutes.
						continue
					}
					seed := uint64(ki)*0x9E3779B97F4A7C15 + uint64(w*h)
					src := fuzzSource(k.src, w, h, seed)
					dw, dh := w, h
					if k.halfDst {
						dw, dh = max(w/2, 1), max(h/2, 1)
					}
					for _, workers := range []int{1, 4} {
						for _, fuse := range []bool{false, true} {
							if fuse && !k.fusable {
								continue
							}
							checkLaneTwins(t, k.name+" "+isa.String(), func(tc *trace.Counter, inj faults.Injector) (*image.Mat, error) {
								o := NewOps(isa, tc)
								o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
								o.SetFuse(FuseConfig{Enabled: fuse})
								if inj != nil {
									o.SetFaultInjector(inj)
								}
								dst := image.NewMat(dw, dh, k.dst)
								return dst, k.run(o, seed, src, dst)
							})
						}
					}
				}
			}
		}
	}
	// RGBToGray is not served, but its NEON chunk has a twin too.
	for _, w := range []int{1, 7, 8, 9, 17, 641} {
		for _, workers := range []int{1, 4} {
			src := image.SyntheticRGB(image.Resolution{Width: w, Height: 3}, uint64(w))
			checkLaneTwins(t, "RGBToGray", func(tc *trace.Counter, inj faults.Injector) (*image.Mat, error) {
				o := NewOps(ISANEON, tc)
				o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
				if inj != nil {
					o.SetFaultInjector(inj)
				}
				dst := image.NewMat(w, 3, image.U8)
				return dst, o.RGBToGray(src, dst)
			})
		}
	}
}

// TestSSE2GaussianTwinsOffSplit: the SSE2 Gaussian twins run their tap
// chain on split registers only behind vec.SplitFits, and the real
// kernel's taps always pass it, so their fallback loop never runs on a
// served call. Here args that fail the row test (a tap of 256, taps whose
// 255-fold sum overflows a lane, a non-zero unpack operand, a rounding
// half that is no broadcast) drive both passes' rows directly, and the
// plain twins and skeletons still match the instrumented bodies in planes
// and counts. The real taps run as a control.
func TestSSE2GaussianTwinsOffSplit(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(a *gaussArgs)
		split bool
	}{
		{"real taps", func(*gaussArgs) {}, true},
		{"tap of 256", func(a *gaussArgs) { a.wv[3] = vec.Splat16(256) }, false},
		{"taps' sum overflows", func(a *gaussArgs) {
			for k := range a.wv {
				a.wv[k] = vec.Splat16(40)
			}
		}, false},
		{"non-zero unpack operand", func(a *gaussArgs) { a.zero = vec.Splat8(1) }, false},
		{"half no broadcast", func(a *gaussArgs) { a.half.Lo ^= 1 }, false},
	}
	const h = 5
	for _, c := range cases {
		var a gaussArgs
		for k := range a.wv {
			a.wv[k] = vec.Splat16(GaussKernel7[k])
		}
		a.half = vec.Splat16(1 << (gaussShift - 1))
		c.edit(&a)
		if got := vec.SplitFits(a.zero, a.wv[:], a.half, gaussShift); got != c.split {
			t.Fatalf("%s: SplitFits = %v, want %v", c.name, got, c.split)
		}
		for _, w := range []int{1, 7, 8, 9, 641} {
			src := fuzzSource(image.U8, w, h, uint64(w))
			checkLaneTwins(t, fmt.Sprintf("%s, width %d", c.name, w), func(tc *trace.Counter, inj faults.Injector) (*image.Mat, error) {
				o := NewOps(ISASSE2, tc)
				if inj != nil {
					o.SetFaultInjector(inj)
				}
				// The horizontal pass fills the top h rows, the vertical
				// pass, over the same source, the bottom h.
				out := image.NewMat(w, 2*h, image.U8)
				a.src, a.w, a.h = src.U8Pix, w, h
				a.dst = out.U8Pix[:w*h]
				parRows(o, h, a, gaussHorizSSE2Row, gaussHorizSSE2RowLanes)
				a.dst = out.U8Pix[w*h:]
				parRows(o, h, a, gaussVertSSE2Row, gaussVertSSE2RowLanes)
				return out, nil
			})
		}
	}
}

// TestUnitsRunChoosesTwin: a band runs the plain twin when its unit is
// untraced, the plain twin and then the skeleton (with its unit's count
// array bound) when the tally binds, and the instrumented body under an
// injector or a counter capturing a sequence, for one band and for
// several.
func TestUnitsRunChoosesTwin(t *testing.T) {
	for _, c := range []struct {
		name string
		tc   *trace.Counter
		inj  faults.Injector
		want string
	}{
		{"untraced", nil, nil, "plain"},
		{"traced", &trace.Counter{}, nil, "plain skeleton"},
		{"sequence capture", &trace.Counter{SeqCap: 1}, nil, "body"},
		{"injector", nil, nopInjector{}, "body"},
		{"traced with injector", &trace.Counter{}, nopInjector{}, "body"},
	} {
		for _, workers := range []int{1, 2} {
			var ran [2]string // the bodies a row ran, one slot per row
			rec := func(what string) func(b *Ops, _ int, y int) {
				return func(b *Ops, _ int, y int) {
					if what == "skeleton" && b.n.Counts() == nil {
						what = "skeleton without a count array"
					}
					ran[y] = strings.TrimSpace(ran[y] + " " + what)
				}
			}
			o := NewOps(ISANEON, c.tc)
			o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
			if c.inj != nil {
				o.SetFaultInjector(c.inj)
			}
			parRows(o, len(ran), 0, rec("body"), &twins[func(*Ops, int, int)]{rec("plain"), rec("skeleton")})
			if ran != [2]string{c.want, c.want} {
				t.Errorf("%s, %d workers: rows ran %q, want %s", c.name, workers, ran, c.want)
			}
		}
	}
}
