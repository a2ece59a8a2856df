package fuse

import (
	"fmt"
	"testing"

	"simdstudy/internal/cache"
)

// cannyPlan mirrors the shape internal/cv fuses: two separable smoothing
// pairs feeding a magnitude stage feeding a halo-1 NMS stage.
func cannyPlan() Plan {
	return Plan{
		Name: "canny",
		Stages: []Stage{
			{Name: "diffH", Inputs: []Input{{Stage: External, Halo: 0}}, Elem: 2},
			{Name: "smoothV", Inputs: []Input{{Stage: 0, Halo: 1}}, Elem: 2},
			{Name: "smoothH", Inputs: []Input{{Stage: External, Halo: 0}}, Elem: 2},
			{Name: "diffV", Inputs: []Input{{Stage: 2, Halo: 1}}, Elem: 2},
			{Name: "mag", Inputs: []Input{{Stage: 1, Halo: 0}, {Stage: 3, Halo: 0}}, Elem: 2},
			{Name: "nms", Inputs: []Input{{Stage: 4, Halo: 1}, {Stage: 1, Halo: 0}, {Stage: 3, Halo: 0}}, Elem: 1, Full: true},
		},
	}
}

func TestLeads(t *testing.T) {
	lead := cannyPlan().leads()
	want := []int{2, 1, 2, 1, 1, 0}
	for i := range want {
		if lead[i] != want[i] {
			t.Fatalf("lead[%d] = %d, want %d (all %v)", i, lead[i], want[i], lead)
		}
	}
}

func TestStageRowsCoverEachRowOnce(t *testing.T) {
	p := cannyPlan()
	for _, h := range []int{1, 2, 3, 7, 8, 9, 40, 53} {
		for _, s := range []int{1, 3, 8, 17, h} {
			g, err := p.Geometry(h, s)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.Stages {
				next := 0
				for k := 0; k < g.Strips; k++ {
					y0, y1 := g.StageRows(i, k)
					if y0 != next {
						t.Fatalf("h=%d s=%d stage %d strip %d: rows start %d, want %d", h, s, i, k, y0, next)
					}
					if y1 < y0 || y1 > h {
						t.Fatalf("h=%d s=%d stage %d strip %d: rows [%d,%d)", h, s, i, k, y0, y1)
					}
					next = y1
				}
				if next != h {
					t.Fatalf("h=%d s=%d stage %d: covered %d of %d rows", h, s, i, next, h)
				}
			}
		}
	}
}

// TestSweepSimulation drives Strip windows through full sweeps and
// band-major ones (each band an Interval with its own windows) and checks
// that every input row a stage needs is live in its producer's window,
// that values survive the halo-carry slides, that windows never exceed
// their planned capacity, and that the bands together produce every row
// of the last stage exactly once.
func TestSweepSimulation(t *testing.T) {
	for _, p := range []Plan{cannyPlan(), edgesPlan(3)} {
		last := len(p.Stages) - 1
		for _, h := range []int{1, 3, 5, 8, 9, 40, 53} {
			for _, s := range []int{1, 3, 8, 17, h} {
				whole, err := p.Geometry(h, s)
				if err != nil {
					t.Fatal(err)
				}
				for nb := 1; nb <= min(h, 5); nb++ {
					out := make([]int, h)
					for b := 0; b < nb; b++ {
						y0, y1 := b*h/nb, (b+1)*h/nb
						g := whole.Interval(y0, y1)
						name := fmt.Sprintf("%s h=%d s=%d band [%d,%d)", p.Name, h, s, y0, y1)
						simulateSweep(t, name, p, g, h)
						for k := 0; k < g.Strips; k++ {
							r0, r1 := g.StageRows(last, k)
							for y := r0; y < r1; y++ {
								out[y]++
							}
						}
					}
					for y, n := range out {
						if n != 1 {
							t.Fatalf("%s h=%d s=%d %d bands: last-stage row %d produced %d times", p.Name, h, s, nb, y, n)
						}
					}
				}
			}
		}
	}
}

// edgesPlan mirrors DetectEdges' shape: the combine reads the gradients
// with the chunk halo hc.
func edgesPlan(hc int) Plan {
	return Plan{
		Name: "edges",
		Stages: []Stage{
			{Name: "diffH", Inputs: []Input{{Stage: External}}, Elem: 2},
			{Name: "smoothV", Inputs: []Input{{Stage: 0, Halo: 1}}, Elem: 2},
			{Name: "smoothH", Inputs: []Input{{Stage: External}}, Elem: 2},
			{Name: "diffV", Inputs: []Input{{Stage: 2, Halo: 1}}, Elem: 2},
			{Name: "combine", Inputs: []Input{{Stage: 1, Halo: hc}, {Stage: 3, Halo: hc}}, Elem: 1, Full: true},
		},
	}
}

// simulateSweep runs g's strips over stamped windows: each produced row
// holds stamp(stage, row), and each input row a stage reads must hold its
// producer's stamp.
func simulateSweep(t *testing.T, name string, p Plan, g Geometry, h int) {
	t.Helper()
	const w = 5
	wins := make([]Strip[int], len(p.Stages))
	for i := range p.Stages {
		if p.Stages[i].Full {
			continue
		}
		wins[i].Bind(make([]int, g.Cap[i]*w), w, g.Cap[i])
	}
	for k := 0; k < g.Strips; k++ {
		for i, st := range p.Stages {
			if !st.Full {
				wins[i].Slide(g.Keep(i, k))
			}
			y0, y1 := g.StageRows(i, k)
			if y1 == y0 {
				continue
			}
			if !st.Full {
				wins[i].Produce(y1 - 1) // panics past the planned capacity
			}
			for y := y0; y < y1; y++ {
				for _, in := range st.Inputs {
					if in.Stage == External {
						continue
					}
					for d := -in.Halo; d <= in.Halo; d++ {
						yy := min(max(y+d, 0), h-1)
						row := liveRow(&wins[in.Stage], yy) // panics if not live
						if row[0] != stamp(in.Stage, yy) {
							t.Fatalf("%s stage %d strip %d row %d: input %d row %d holds %d, want %d",
								name, i, k, y, in.Stage, yy, row[0], stamp(in.Stage, yy))
						}
					}
				}
				if !st.Full {
					row := liveRow(&wins[i], y)
					for x := range row {
						row[x] = stamp(i, y)
					}
				}
			}
		}
	}
}

func stamp(stage, y int) int { return stage<<16 | y }

func TestKeepNeverDropsNeededRows(t *testing.T) {
	p := cannyPlan()
	g, err := p.Geometry(40, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Going into strip k, consumer c still needs producer rows down to
	// Frontier(c,k-1)+1-halo; Keep must not exceed that.
	for k := 0; k < g.Strips; k++ {
		for c, st := range p.Stages {
			for _, in := range st.Inputs {
				if in.Stage == External {
					continue
				}
				need := g.Frontier(c, k-1) + 1 - in.Halo
				if need < 0 {
					need = 0
				}
				if keep := g.Keep(in.Stage, k); keep > need {
					t.Fatalf("strip %d: Keep(%d)=%d drops row %d still needed by stage %d", k, in.Stage, keep, need, c)
				}
			}
		}
	}
}

func TestAutoStripRows(t *testing.T) {
	p := cannyPlan()
	caches := []cache.Config{
		{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4},
		{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 16},
	}
	s := p.AutoStripRows(1920, 2592, caches)
	if s < 4 || s > 1920 {
		t.Fatalf("strip rows %d out of range", s)
	}
	// The resulting rolling buffers must fit the half-L2 budget.
	g, err := p.Geometry(1920, s)
	if err != nil {
		t.Fatal(err)
	}
	bytes := 0
	for i, st := range p.Stages {
		bytes += g.Cap[i] * 2592 * st.Elem
	}
	if budget := (1 << 20) / 2; bytes > budget+2592*2*len(p.Stages) {
		t.Fatalf("buffers %d bytes exceed budget %d at strip %d", bytes, budget, s)
	}
	// Tiny image: clamps to h.
	if s := p.AutoStripRows(3, 16, caches); s != 3 {
		t.Fatalf("tiny image strip rows %d, want 3", s)
	}
	// No cache model: default budget still yields a sane strip.
	if s := p.AutoStripRows(1920, 2592, nil); s < 4 || s > 1920 {
		t.Fatalf("default-budget strip rows %d out of range", s)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Name: "empty"},
		{Name: "fwd", Stages: []Stage{{Name: "a", Inputs: []Input{{Stage: 1}}, Elem: 2}, {Name: "b", Elem: 2}}},
		{Name: "self", Stages: []Stage{{Name: "a", Inputs: []Input{{Stage: 0}}, Elem: 2}}},
		{Name: "halo", Stages: []Stage{{Name: "a", Inputs: []Input{{Stage: External, Halo: -1}}, Elem: 2}}},
		{Name: "elem", Stages: []Stage{{Name: "a", Elem: 0}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("plan %q: want error", p.Name)
		}
	}
	if err := cannyPlan().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStripSlide(t *testing.T) {
	var s Strip[int]
	s.Bind(make([]int, 4*3), 3, 4)
	s.Produce(3)
	for y := 0; y <= 3; y++ {
		for x, r := 0, liveRow(&s, y); x < 3; x++ {
			r[x] = 10*y + x
		}
	}
	s.Slide(2)
	if s.Lo() != 2 || s.Hi() != 3 {
		t.Fatalf("window [%d,%d], want [2,3]", s.Lo(), s.Hi())
	}
	for y := 2; y <= 3; y++ {
		for x, r := 0, liveRow(&s, y); x < 3; x++ {
			if r[x] != 10*y+x {
				t.Fatalf("row %d col %d = %d after slide", y, x, r[x])
			}
		}
	}
	s.Produce(5)
	if s.Hi() != 5 {
		t.Fatalf("hi %d after produce", s.Hi())
	}
	// Sliding past the produced range empties the window.
	s.Slide(9)
	if s.Lo() != 9 || s.Hi() != 8 {
		t.Fatalf("window [%d,%d] after far slide", s.Lo(), s.Hi())
	}
}

// liveRow is the w-element slice for plane row y of s, panicking unless
// the row is inside the live window.
func liveRow[T any](s *Strip[T], y int) []T {
	if y < s.lo || y > s.hi {
		panic(fmt.Sprintf("fuse: row %d outside live window [%d,%d]", y, s.lo, s.hi))
	}
	r := y - s.lo
	return s.buf[r*s.w : (r+1)*s.w]
}
