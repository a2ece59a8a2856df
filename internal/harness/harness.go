// Package harness orchestrates the paper's experiments: it runs the AUTO
// and HAND builds of every benchmark across the Table I platforms and the
// four image resolutions, and renders Table II, Table III and Figures 2-6
// in the paper's layout (plus CSV for external plotting).
//
// Timing comes from the internal/timing model; functional verification
// optionally executes the real emulated kernels over the synthetic image
// burst (5 distinct images cycled, as in Section III-D) and cross-checks
// the AUTO (scalar) and HAND (intrinsic) outputs against each other.
package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"simdstudy/internal/image"
	"simdstudy/internal/obs"
	"simdstudy/internal/platform"
)

// Cell is one AUTO/HAND measurement pair.
type Cell struct {
	AutoSeconds float64
	HandSeconds float64
	// Metrics is the cell's private observability snapshot (attempt and
	// retry counters, modeled-seconds gauges), taken just before the
	// per-cell registry is merged into GridOptions.Obs. Nil when the grid
	// ran without a registry.
	Metrics obs.Snapshot
}

// Speedup returns HAND-over-AUTO gain.
func (c Cell) Speedup() float64 {
	if c.HandSeconds == 0 {
		return 0
	}
	return c.AutoSeconds / c.HandSeconds
}

// Runs is the paper's repetition count: 5 images cycled 25 times.
const Runs = 100

// Grid holds results for one benchmark over sizes x platforms.
type Grid struct {
	Bench     string
	Platforms []platform.Platform
	Sizes     []image.Resolution
	// Cells[sizeIdx][platformIdx]
	Cells [][]Cell
}

// RunGrid evaluates a benchmark for every platform and size. Reported
// seconds are per single image run (the paper reports the average of 100
// runs; the model is deterministic so mean == single run). It is RunGridCtx
// with no deadline and no journal.
func RunGrid(bench string, platforms []platform.Platform, sizes []image.Resolution) (*Grid, error) {
	return RunGridCtx(context.Background(), bench, platforms, sizes, GridOptions{})
}

// Verify executes the real emulated kernels for a benchmark over the
// 5-image burst at the given resolution on both ISAs, checking that the
// hand-optimized output matches the scalar output (exactly for all integer
// kernels; within 1 LSB for the NEON convert, whose vcvt truncates where
// scalar code rounds). It returns the number of images checked. It is
// VerifyCtx with no deadline.
func Verify(bench string, res image.Resolution) (int, error) {
	return VerifyCtx(context.Background(), bench, res)
}

// --- Table rendering ---

func fmtSecs(s float64) string {
	switch {
	case s >= 0.1:
		return fmt.Sprintf("%.3f", s)
	case s >= 0.001:
		return fmt.Sprintf("%.4f", s)
	default:
		return fmt.Sprintf("%.5f", s)
	}
}

// RenderTable1 prints the platform catalogue in Table I's layout.
func RenderTable1(w io.Writer, platforms []platform.Platform) {
	fmt.Fprintf(w, "%-26s %-16s %-8s %-22s %-22s %-12s %s\n",
		"PROCESSOR", "CODENAME", "Launched", "Threads/Cores/GHz", "Cache L1/L2/L3 (KB)", "Memory", "SIMD Extensions")
	family := platform.Family(-1)
	for _, p := range platforms {
		if p.Family != family {
			family = p.Family
			fmt.Fprintf(w, "%s\n", family)
		}
		fmt.Fprintf(w, "%-26s %-16s %-8s %-22s %-22s %-12s %s\n",
			p.Name, p.Codename, p.Launched,
			fmt.Sprintf("%d/%d/%.2f", p.Threads, p.Cores, p.ClockGHz),
			p.CacheStr, p.Memory, p.SIMD)
	}
}

// RenderTable2 prints the convert benchmark grid in Table II's layout:
// sizes as row groups, platforms as columns, AUTO/HAND/Speed-up rows.
func (g *Grid) RenderTable2(w io.Writer) {
	fmt.Fprintf(w, "Table II: Time (in seconds) to perform conversion of Float to Short Int\n\n")
	g.renderGrouped(w, func(i int) string { return g.Sizes[i].Name })
}

// RenderTable3 prints benchmarks 2-5 at a fixed size in Table III's
// layout. It expects one Grid per benchmark, all with a single size.
func RenderTable3(w io.Writer, grids []*Grid) {
	if len(grids) == 0 {
		return
	}
	fmt.Fprintf(w, "Table III: Time (in seconds) to perform %s benchmarks on %s images\n\n",
		strings.Join(benchNames(grids), ", "), grids[0].Sizes[0].Name)
	writeHeader(w, grids[0].Platforms)
	for _, g := range grids {
		g.renderGroup(w, 0, g.Bench)
	}
}

func benchNames(grids []*Grid) []string {
	out := make([]string, len(grids))
	for i, g := range grids {
		out[i] = g.Bench
	}
	return out
}

func writeHeader(w io.Writer, platforms []platform.Platform) {
	fmt.Fprintf(w, "%-12s %-9s", "Benchmark", "SIMD")
	for _, p := range platforms {
		fmt.Fprintf(w, " %12s", shortName(p))
	}
	fmt.Fprintln(w)
}

func (g *Grid) renderGrouped(w io.Writer, label func(int) string) {
	writeHeader(w, g.Platforms)
	for i := range g.Sizes {
		g.renderGroup(w, i, label(i))
	}
}

func (g *Grid) renderGroup(w io.Writer, sizeIdx int, label string) {
	fmt.Fprintf(w, "%-12s %-9s", label, "AUTO")
	for _, c := range g.Cells[sizeIdx] {
		fmt.Fprintf(w, " %12s", fmtSecs(c.AutoSeconds))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-9s", "", "HAND")
	for _, c := range g.Cells[sizeIdx] {
		fmt.Fprintf(w, " %12s", fmtSecs(c.HandSeconds))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-9s", "", "Speed-up")
	for _, c := range g.Cells[sizeIdx] {
		fmt.Fprintf(w, " %12.2f", c.Speedup())
	}
	fmt.Fprintln(w)
}

// shortName compresses platform names to fit table columns.
func shortName(p platform.Platform) string {
	r := strings.NewReplacer(
		"Intel ", "", "Samsung ", "", "Nvidia ", "", "ARM ", "",
		"Core 2 Quad ", "Core2 ", "Odroid-X Exynos 4412", "Odroid-X",
	)
	s := r.Replace(p.Name)
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

// RenderCSV writes the grid as CSV (size,platform,auto,hand,speedup).
func (g *Grid) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, "benchmark,size,platform,auto_seconds,hand_seconds,speedup")
	for si, res := range g.Sizes {
		for pi, p := range g.Platforms {
			c := g.Cells[si][pi]
			fmt.Fprintf(w, "%s,%s,%s,%.6g,%.6g,%.3f\n",
				g.Bench, res.Name, p.Name, c.AutoSeconds, c.HandSeconds, c.Speedup())
		}
	}
}

// --- Figure rendering ---

// FigureForBench maps the paper's figure numbers to benchmarks.
var FigureForBench = map[int]string{
	2: "ConvertFloatShort",
	3: "BinThr",
	4: "GauBlu",
	5: "SobFil",
	6: "EdgDet",
}

var figureTitles = map[int]string{
	2: "Convert Float to Short relative speed-up factor",
	3: "Binary Image Thresholding relative speed-up",
	4: "Gaussian Blur relative speed-up factor",
	5: "Sobel Filter relative speed-up factor",
	6: "Edge Detection relative speed-up factor",
}

// RenderFigure prints a speedup-per-size series for every platform as an
// ASCII chart, reproducing the figure's content (series of speedups over
// the four image sizes per platform).
func (g *Grid) RenderFigure(w io.Writer, number int) {
	fmt.Fprintf(w, "Figure %d: %s\n\n", number, figureTitles[number])
	// Scale for bars.
	maxS := 1.0
	for si := range g.Sizes {
		for pi := range g.Platforms {
			if s := g.Cells[si][pi].Speedup(); s > maxS {
				maxS = s
			}
		}
	}
	fmt.Fprintf(w, "%-26s", "Platform")
	for _, res := range g.Sizes {
		fmt.Fprintf(w, " %10s", res.Name)
	}
	fmt.Fprintln(w)
	const barWidth = 40
	for pi, p := range g.Platforms {
		fmt.Fprintf(w, "%-26s", p.Name)
		for si := range g.Sizes {
			fmt.Fprintf(w, " %9.2fx", g.Cells[si][pi].Speedup())
		}
		fmt.Fprintln(w)
		// Bar for the largest size.
		s := g.Cells[len(g.Sizes)-1][pi].Speedup()
		n := int(s / maxS * barWidth)
		if n < 1 {
			n = 1
		}
		fmt.Fprintf(w, "%-26s %s %.2fx\n", "", strings.Repeat("#", n), s)
	}
}

// FamilyRange is the min/max HAND:AUTO speedup observed for one processor
// family across a set of grids — the quantity in the paper's abstract
// ("between 1.05 and 13.88 on ARM, between 1.34 and 5.54 on Intel").
type FamilyRange struct {
	Family   platform.Family
	Min, Max float64
}

// SpeedupRanges computes per-family speedup ranges over the given grids.
func SpeedupRanges(grids []*Grid) []FamilyRange {
	ranges := map[platform.Family]*FamilyRange{}
	for _, g := range grids {
		for si := range g.Sizes {
			for pi, p := range g.Platforms {
				s := g.Cells[si][pi].Speedup()
				r, ok := ranges[p.Family]
				if !ok {
					r = &FamilyRange{Family: p.Family, Min: s, Max: s}
					ranges[p.Family] = r
					continue
				}
				if s < r.Min {
					r.Min = s
				}
				if s > r.Max {
					r.Max = s
				}
			}
		}
	}
	out := make([]FamilyRange, 0, len(ranges))
	for _, f := range []platform.Family{platform.ARM, platform.Intel} {
		if r, ok := ranges[f]; ok {
			out = append(out, *r)
		}
	}
	return out
}

// RenderAbstractSummary prints the paper's abstract sentence with the
// measured numbers.
func RenderAbstractSummary(w io.Writer, grids []*Grid) {
	ranges := SpeedupRanges(grids)
	for _, r := range ranges {
		name := "NEON"
		if r.Family == platform.Intel {
			name = "SSE"
		}
		fmt.Fprintf(w, "On the %s platforms the hand-tuned %s benchmarks were between %.2f and %.2f faster than the auto-vectorized code.\n",
			r.Family, name, r.Min, r.Max)
	}
}
