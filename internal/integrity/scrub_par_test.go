package integrity

import (
	"fmt"
	"strings"
	"testing"

	"simdstudy/internal/image"
	"simdstudy/internal/obs"
	"simdstudy/internal/par"
)

// TestPoolScrubberWiredIntoPar exercises the real pool boundary: a plane
// corrupted while parked in par's scratch pool must be caught by the
// scrubber at GetMat, counted, and never handed back to a caller.
func TestPoolScrubberWiredIntoPar(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewPoolScrubber(reg)
	par.SetScrubber(s)
	defer par.SetScrubber(nil)

	const w, h = 37, 23
	m := par.GetMat(w, h, image.U8)
	for i := range m.U8Pix {
		m.U8Pix[i] = byte(i * 13)
	}
	par.PutMat(m) // stamped here
	m.U8Pix[250] ^= 0x08

	// The pool is LIFO on one goroutine, so the next Get sees the corrupted
	// plane; a conservative loop keeps the test robust to pool internals.
	var corruptSeen bool
	for i := 0; i < 8 && !corruptSeen; i++ {
		g := par.GetMat(w, h, image.U8)
		if g == m {
			t.Fatal("corrupted parked plane handed back to a caller")
		}
		for j, v := range g.U8Pix {
			if v != 0 {
				t.Fatalf("GetMat returned non-zeroed plane at %d", j)
			}
		}
		corruptSeen = metricValue(t, reg, `plane_scrub_total{result="corrupt"}`) >= 1
		par.PutMat(g)
	}
	if !corruptSeen {
		t.Fatal("parked corruption never detected at the reuse boundary")
	}

	// A clean park/reuse cycle counts on the ok side and reuses the plane.
	c := par.GetMat(w, h, image.U8)
	par.PutMat(c)
	g := par.GetMat(w, h, image.U8)
	if metricValue(t, reg, `plane_scrub_total{result="ok"}`) < 1 {
		t.Fatal("clean reuse not counted")
	}
	par.PutMat(g)
}

// TestPoolScrubberVerifiesEveryParkedPlane: the fingerprint rides beside
// the idle plane in the recycler, so no number of later parks can push a
// plane out of verification. A hundred planes park, the first one parked
// is corrupted, and taking them all back must catch it.
func TestPoolScrubberVerifiesEveryParkedPlane(t *testing.T) {
	reg := obs.NewRegistry()
	par.SetScrubber(NewPoolScrubber(reg))
	defer par.SetScrubber(nil)

	const w, h, n = 41, 29, 100
	mats := make([]*image.Mat, n)
	for i := range mats {
		mats[i] = par.GetMat(w, h, image.U8)
		for j := range mats[i].U8Pix {
			mats[i].U8Pix[j] = byte(i + j)
		}
	}
	for _, m := range mats {
		par.PutMat(m)
	}
	first := mats[0]
	first.U8Pix[7] ^= 0x40

	for i := range mats {
		g := par.GetMat(w, h, image.U8)
		if g == first {
			t.Fatal("the corrupted first-parked plane was handed back")
		}
		mats[i] = g
	}
	if got := metricValue(t, reg, `plane_scrub_total{result="corrupt"}`); got != 1 {
		t.Fatalf("corrupt scrubs = %v, want 1", got)
	}
	if got := metricValue(t, reg, `plane_scrub_total{result="ok"}`); got != n-1 {
		t.Fatalf("clean scrubs = %v, want %d", got, n-1)
	}
	for _, m := range mats {
		par.PutMat(m)
	}
}

func metricValue(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscan(line[len(series)+1:], &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}
