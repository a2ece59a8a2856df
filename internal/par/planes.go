package par

import (
	"slices"
	"sync"
	"sync/atomic"

	"simdstudy/internal/image"
)

// --- The plane recycler ---

// parked is an idle plane, the scrubber's fingerprint of it (nil when no
// scrubber was installed as it parked), and its park order.
type parked struct {
	m     *image.Mat
	stamp any
	seq   uint64
}

// recycler keeps idle planes for reuse, one list per kind in park order.
// A take of n elements is served by the idle plane of smallest capacity
// in [n, 2n], so a referee's few-row window never stands in for a full
// plane and a 5 Mpx plane is never spent on a VGA take. Its byte cap is
// derived, not configured: the bytes it accounts for, checked out plus
// idle, never exceed twice high, the most bytes ever checked out at once,
// and the least recently parked planes are evicted first. The slack over
// one high-water mark holds planes a workload uses in turn rather than
// at once: a request's kernel scratch and its referee's windows, or a
// convert's F32 source and a Gaussian's U8 planes. An evicted plane is
// ordinary garbage; nothing else references it.
type recycler struct {
	mu        sync.Mutex
	idle      [3][]parked
	seq       uint64
	out       int64 // bytes checked out now
	idleBytes int64
	high      int64 // most bytes checked out at once
}

// planes is the process-wide recycler behind GetMat and PutMat.
var planes recycler

// capacity is the element capacity of m's plane.
func capacity(m *image.Mat) int {
	switch m.Kind {
	case image.U8:
		return cap(m.U8Pix)
	case image.S16:
		return cap(m.S16Pix)
	case image.F32:
		return cap(m.F32Pix)
	}
	return 0
}

// planeBytes is the storage m's plane holds, capacity included.
func planeBytes(m *image.Mat) int64 { return int64(capacity(m) * m.Kind.Size()) }

// checkOutLocked counts b more bytes as checked out, then evicts the
// least recently parked planes until checked-out and idle bytes fit in
// twice the high-water mark.
func (r *recycler) checkOutLocked(b int64) {
	r.out = max(0, r.out+b)
	r.high = max(r.high, r.out)
	for r.out+r.idleBytes > 2*r.high {
		k := -1
		for i, l := range r.idle {
			if len(l) > 0 && (k < 0 || l[0].seq < r.idle[k][0].seq) {
				k = i
			}
		}
		r.idleBytes -= planeBytes(r.idle[k][0].m)
		r.idle[k] = slices.Delete(r.idle[k], 0, 1)
	}
}

// take removes and returns the best-fitting idle plane for n elements of
// kind, with its stamp, counted as checked out; nil when none fits.
func (r *recycler) take(n int, kind image.Type) (*image.Mat, any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.idle[kind]
	best, bestCap := -1, 0
	// Newest first, so a tie goes to the plane most likely still in cache.
	for i := len(list) - 1; i >= 0; i-- {
		if c := capacity(list[i].m); c >= n && c <= 2*n && (best < 0 || c < bestCap) {
			best, bestCap = i, c
		}
	}
	if best < 0 {
		return nil, nil
	}
	p := list[best]
	r.idle[kind] = slices.Delete(list, best, best+1)
	b := planeBytes(p.m)
	r.idleBytes -= b
	r.checkOutLocked(b)
	return p.m, p.stamp
}

// adjustOut counts a plane taken (b > 0) or discarded (b < 0) outside the
// idle lists.
func (r *recycler) adjustOut(b int64) {
	r.mu.Lock()
	r.checkOutLocked(b)
	r.mu.Unlock()
}

// get returns a w x h plane of kind, recycled when one fits and freshly
// allocated otherwise; zero clears a recycled plane.
func (r *recycler) get(w, h int, kind image.Type, zero bool) *image.Mat {
	n := w * h
	m, stamp := r.take(n, kind)
	if m != nil {
		if sc := scrubber(); sc != nil && !sc.Check(m, stamp) {
			// The plane changed while parked: silent corruption at rest.
			// Never reuse it — the replacement is allocated fresh and zeroed.
			r.adjustOut(-planeBytes(m))
			m = nil
		}
	}
	if m == nil {
		m = image.NewMat(w, h, kind)
		r.adjustOut(planeBytes(m))
		return m
	}
	m.Width, m.Height = w, h
	switch kind {
	case image.U8:
		m.U8Pix = m.U8Pix[:n]
		if zero {
			clear(m.U8Pix)
		}
	case image.S16:
		m.S16Pix = m.S16Pix[:n]
		if zero {
			clear(m.S16Pix)
		}
	case image.F32:
		m.F32Pix = m.F32Pix[:n]
		if zero {
			clear(m.F32Pix)
		}
	}
	return m
}

// put stamps and parks m. Parking a plane that is already idle panics:
// the next two takes would both get it.
func (r *recycler) put(m *image.Mat) {
	if m == nil || int(m.Kind) < 0 || int(m.Kind) >= len(r.idle) {
		return
	}
	var stamp any
	if sc := scrubber(); sc != nil {
		stamp = sc.Stamp(m)
	}
	b := planeBytes(m)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.idle[m.Kind] {
		if p.m == m {
			panic("par: PutMat of a plane that is already idle")
		}
	}
	r.seq++
	r.idle[m.Kind] = append(r.idle[m.Kind], parked{m: m, stamp: stamp, seq: r.seq})
	r.idleBytes += b
	// A Mat the recycler never handed out returns no checked-out bytes,
	// and may push the total over the cap.
	r.checkOutLocked(-b)
}

// PlaneStats is the recycler's byte accounting.
type PlaneStats struct {
	CheckedOut int64 // bytes of planes handed out and not yet returned
	Idle       int64 // bytes parked for reuse
	HighWater  int64 // most bytes ever checked out at once; CheckedOut+Idle stays within twice it
}

// ReadPlaneStats returns the process-wide recycler's accounting.
func ReadPlaneStats() PlaneStats {
	planes.mu.Lock()
	defer planes.mu.Unlock()
	return PlaneStats{CheckedOut: planes.out, Idle: planes.idleBytes, HighWater: planes.high}
}

// Scrubber is the integrity hook around the recycler: Stamp fingerprints
// a plane as it is parked, the recycler keeps the fingerprint beside the
// idle plane, and Check re-verifies the plane against it at the reuse
// boundary — before GetMat reslices or clears anything. A false return
// means the plane changed while parked, so the Mat is discarded instead
// of reused. A nil stamp (the plane parked before a scrubber was
// installed) passes. internal/integrity.PoolScrubber implements it; the
// indirection keeps par free of a dependency on the integrity layer.
type Scrubber interface {
	Stamp(m *image.Mat) any
	Check(m *image.Mat, stamp any) bool
}

// scrubCell wraps the hook for atomic.Value's consistent-type requirement.
type scrubCell struct{ s Scrubber }

var scrubHook atomic.Value // scrubCell

// SetScrubber installs (or, with nil, removes) the process-wide plane
// scrubber. Off by default: fingerprinting every parked plane costs a
// hash pass per Put and Get, which the serving and campaign layers opt
// into alongside audits.
func SetScrubber(s Scrubber) { scrubHook.Store(scrubCell{s: s}) }

func scrubber() Scrubber {
	c, _ := scrubHook.Load().(scrubCell)
	return c.s
}

// GetMat returns a w x h plane of the given kind with zeroed pixels, as
// image.NewMat provides, for a caller that reads an element before it
// writes it. Return it with PutMat when done; steady-state reuse
// allocates nothing.
func GetMat(w, h int, kind image.Type) *image.Mat {
	return planes.get(w, h, kind, true)
}

// GetMatForOverwrite is GetMat without the zeroing pass. Only for callers
// that fully overwrite every element before reading any — input synthesis
// writes every pixel, the memo hit path copies a complete cached plane
// over the Mat, a Sobel, Canny or DetectEdges stage writes its scratch
// plane or strip window whole — where the clear would be a wasted write
// sweep. Stale
// contents are visible until the overwrite lands, so never hand such a
// Mat to a kernel that assumes zero initialization.
func GetMatForOverwrite(w, h int, kind image.Type) *image.Mat {
	return planes.get(w, h, kind, false)
}

// PutMat recycles a Mat obtained from GetMat or GetMatForOverwrite. The
// Mat must not be used after PutMat returns, and must not be put twice
// (PutMat panics if it is still idle).
func PutMat(m *image.Mat) { planes.put(m) }
