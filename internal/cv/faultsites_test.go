package cv

import (
	"context"
	"testing"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/vec"
)

// siteCounts is one kernel's fault-hook calls, indexed [site] in the order
// load, store, alu, convert.
type siteCounts struct {
	v128, v64, skew [faults.NumSites]int
}

// countingInjector counts every fault-hook call and corrupts nothing.
type countingInjector struct{ siteCounts }

func (c *countingInjector) V128(s faults.Site, v vec.V128) vec.V128 { c.v128[s]++; return v }
func (c *countingInjector) V64(s faults.Site, v vec.V64) vec.V64    { c.v64[s]++; return v }
func (c *countingInjector) Skew(s faults.Site, _ int) int           { c.skew[s]++; return 0 }

// TestFaultSiteCoverage pins how many times each kernel consults the fault
// hook, per hook method and site, at 67x13 (a width that leaves a scalar
// tail on every SIMD loop). Every emulated intrinsic is a fault
// opportunity; a change to the intrinsics' injector fast path that drops
// or adds a call shows here, and would shift every seeded campaign.
func TestFaultSiteCoverage(t *testing.T) {
	res := image.Resolution{Width: 67, Height: 13}
	cases := []struct {
		kernel string
		isa    ISA
		want   siteCounts // measured before the injector fast path was inlined
	}{
		{"MedianBlur3x3", ISANEON, siteCounts{v128: [4]int{468, 52, 1976, 0}, skew: [4]int{468, 52, 0, 0}}},
		{"MedianBlur3x3", ISASSE2, siteCounts{v128: [4]int{468, 52, 1976, 0}, skew: [4]int{468, 52, 0, 0}}},
		{"GaussianBlur", ISANEON, siteCounts{v128: [4]int{0, 0, 1365, 0}, v64: [4]int{1365, 195, 0, 195}, skew: [4]int{1365, 195, 0, 0}}},
		{"GaussianBlur", ISASSE2, siteCounts{v128: [4]int{1365, 195, 2730, 1755}, skew: [4]int{1365, 195, 0, 0}}},
		{"ConvertF32ToS16", ISANEON, siteCounts{v128: [4]int{216, 108, 0, 216}, v64: [4]int{0, 0, 0, 216}, skew: [4]int{216, 108, 0, 0}}},
		{"ConvertF32ToS16", ISASSE2, siteCounts{v128: [4]int{216, 108, 0, 324}, skew: [4]int{216, 108, 0, 0}}},
	}
	for _, c := range cases {
		t.Run(c.kernel+"/"+c.isa.String(), func(t *testing.T) {
			o := NewOps(c.isa, nil)
			var inj countingInjector
			o.SetFaultInjector(&inj)
			var err error
			switch c.kernel {
			case "MedianBlur3x3":
				err = o.MedianBlur3x3Ctx(context.Background(), image.Synthetic(res, 3), image.NewMat(res.Width, res.Height, image.U8))
			case "GaussianBlur":
				err = o.GaussianBlur(image.Synthetic(res, 3), image.NewMat(res.Width, res.Height, image.U8))
			case "ConvertF32ToS16":
				err = o.ConvertF32ToS16(image.SyntheticF32(res, 3), image.NewMat(res.Width, res.Height, image.S16))
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := inj.siteCounts; got != c.want {
				t.Errorf("fault-hook calls per site (load, store, alu, convert):\n got  %+v\n want %+v", got, c.want)
			}
		})
	}
}
