// Package faults is a deterministic fault-injection engine for the SIMD
// emulation stack.
//
// The paper's argument rests on hand-written intrinsics being trustworthy
// replacements for compiler output; its Section V cross-checks exist because
// saturating narrow/convert paths are exactly where silent corruption hides.
// This package makes that threat model executable: a Plan is a seedable,
// reproducible schedule of lane corruptions that hooks into the NEON and
// SSE2 emulation units (via their FaultHook fields), so a fault campaign —
// inject N faults, measure how many the guarded kernel library detects and
// how many are masked — is a deterministic function of (rate, seed, workload).
//
// Fault sites classify where in an intrinsic stream a fault strikes (load,
// store, arithmetic, conversion); fault kinds say what the corruption looks
// like (single bit-flip, NaN poisoning of a float lane, a saturation-boundary
// stuck-at value, or a load/store index skew). Every decision comes from a
// private xorshift64* stream, so identical call sequences with the same seed
// inject identical faults.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"simdstudy/internal/vec"
)

// Site classifies the intrinsic class a fault strikes.
type Site int

// Fault sites. Every emulated intrinsic maps to one of these.
const (
	SiteLoad    Site = iota // vector loads (vld1/movdqu/...)
	SiteStore               // vector stores
	SiteALU                 // vector arithmetic and logic results
	SiteConvert             // conversions and saturating narrows/packs
	numSites
)

// NumSites is the number of distinct fault sites.
const NumSites = int(numSites)

var siteNames = [...]string{"load", "store", "alu", "convert"}

// String names the site.
func (s Site) String() string {
	if s < 0 || int(s) >= NumSites {
		return fmt.Sprintf("site(%d)", int(s))
	}
	return siteNames[s]
}

// Kind says what a fired fault does to the value it strikes.
type Kind int

// Fault kinds.
const (
	// KindBitFlip flips one uniformly chosen bit of the register, the
	// classic soft-error model.
	KindBitFlip Kind = iota
	// KindNaN overwrites one 32-bit lane with a quiet NaN, poisoning any
	// float arithmetic downstream (and scrambling integer lanes).
	KindNaN
	// KindSatBoundary overwrites one 16-bit lane with the int16 saturation
	// boundary 0x7FFF, modeling a stuck-at saturator — the failure mode the
	// paper's saturating narrow paths are most sensitive to.
	KindSatBoundary
	// KindIndexSkew shifts a load/store base address by one element,
	// modeling an address-generation slip. Only fires at Skew call sites.
	KindIndexSkew
	numKinds
)

// NumKinds is the number of distinct fault kinds.
const NumKinds = int(numKinds)

var kindNames = [...]string{"bitflip", "nan", "satboundary", "indexskew"}

// String names the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= NumKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Injector is the hook interface the NEON and SSE2 emulation units call at
// every instrumented intrinsic. Implementations decide whether a fault
// fires and return the (possibly corrupted) value. A nil Injector in a Unit
// disables injection with zero overhead.
type Injector interface {
	// V128 gives the injector a chance to corrupt a 128-bit intrinsic
	// result (or store operand) at the given site.
	V128(site Site, v vec.V128) vec.V128
	// V64 is V128 for 64-bit D-register values.
	V64(site Site, v vec.V64) vec.V64
	// Skew returns an element offset (0 = no fault) to add to a load/store
	// base index. slack is the largest offset that stays in bounds;
	// implementations must return a value in [0, max(slack, 0)].
	Skew(site Site, slack int) int
}

// Config parameterizes a Plan.
type Config struct {
	// Rate is the per-opportunity fault probability. Every instrumented
	// intrinsic value and every skewable load/store is one opportunity.
	Rate float64
	// Seed makes the injection schedule reproducible. Seed 0 is replaced
	// with a fixed constant so the zero Config still behaves sanely.
	Seed uint64
	// Sites restricts injection to the listed sites; empty means all.
	Sites []Site
	// Kinds restricts corruption to the listed kinds; empty means all.
	Kinds []Kind
}

// Event is one injected fault, kept for reporting.
type Event struct {
	Seq  uint64 // opportunity index at which the fault fired
	Site Site
	Kind Kind
	Bit  int // flipped bit (KindBitFlip), lane (others), offset (skew)
}

// Plan is a deterministic fault schedule. It implements Injector. A Plan is
// safe for use from multiple goroutines, though the injection sequence is
// only reproducible for a deterministic call order.
type Plan struct {
	mu    sync.Mutex
	rate  float64
	seed  uint64
	s     uint64 // xorshift64* state
	sites [numSites]bool
	kinds [numKinds]bool

	calls    uint64
	injected uint64
	bySite   [numSites]uint64
	byKind   [numKinds]uint64
	events   []Event
	// EventCap bounds the retained event list (default 1024).
	eventCap int
}

// NewPlan builds a Plan from cfg. Rates outside [0,1] are clamped.
func NewPlan(cfg Config) *Plan {
	p := &Plan{rate: cfg.Rate, eventCap: 1024}
	if p.rate < 0 {
		p.rate = 0
	}
	if p.rate > 1 {
		p.rate = 1
	}
	p.seed = cfg.Seed
	if p.seed == 0 {
		p.seed = 0x9E3779B97F4A7C15
	}
	p.s = p.seed
	if len(cfg.Sites) == 0 {
		for i := range p.sites {
			p.sites[i] = true
		}
	} else {
		for _, s := range cfg.Sites {
			if s >= 0 && int(s) < NumSites {
				p.sites[s] = true
			}
		}
	}
	if len(cfg.Kinds) == 0 {
		for i := range p.kinds {
			p.kinds[i] = true
		}
	} else {
		for _, k := range cfg.Kinds {
			if k >= 0 && int(k) < NumKinds {
				p.kinds[k] = true
			}
		}
	}
	return p
}

// next advances the xorshift64* stream. Callers hold mu.
func (p *Plan) next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545F4914F6CDD1D
}

// fire decides whether this opportunity faults. Callers hold mu.
func (p *Plan) fire(site Site) bool {
	p.calls++
	if p.rate == 0 || !p.sites[site] {
		return false
	}
	// Top 53 bits -> uniform in [0,1).
	u := float64(p.next()>>11) / (1 << 53)
	return u < p.rate
}

// pickValueKind chooses among the enabled value-corrupting kinds. Callers
// hold mu. Returns false if no value kind is enabled.
func (p *Plan) pickValueKind() (Kind, bool) {
	var enabled []Kind
	for _, k := range []Kind{KindBitFlip, KindNaN, KindSatBoundary} {
		if p.kinds[k] {
			enabled = append(enabled, k)
		}
	}
	if len(enabled) == 0 {
		return 0, false
	}
	return enabled[p.next()%uint64(len(enabled))], true
}

func (p *Plan) record(site Site, kind Kind, detail int) {
	p.injected++
	p.bySite[site]++
	p.byKind[kind]++
	if len(p.events) < p.eventCap {
		p.events = append(p.events, Event{Seq: p.calls, Site: site, Kind: kind, Bit: detail})
	}
}

// V128 implements Injector.
func (p *Plan) V128(site Site, v vec.V128) vec.V128 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.fire(site) {
		return v
	}
	kind, ok := p.pickValueKind()
	if !ok {
		return v
	}
	switch kind {
	case KindBitFlip:
		bit := int(p.next() % 128)
		v.SetU8(bit/8, v.U8(bit/8)^1<<(bit%8))
		p.record(site, kind, bit)
	case KindNaN:
		lane := int(p.next() % 4)
		v.SetF32(lane, float32(math.NaN()))
		p.record(site, kind, lane)
	case KindSatBoundary:
		lane := int(p.next() % 8)
		v.SetI16(lane, 0x7FFF)
		p.record(site, kind, lane)
	}
	return v
}

// V64 implements Injector.
func (p *Plan) V64(site Site, v vec.V64) vec.V64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.fire(site) {
		return v
	}
	kind, ok := p.pickValueKind()
	if !ok {
		return v
	}
	switch kind {
	case KindBitFlip:
		bit := int(p.next() % 64)
		v.SetU8(bit/8, v.U8(bit/8)^1<<(bit%8))
		p.record(site, kind, bit)
	case KindNaN:
		lane := int(p.next() % 2)
		v.SetF32(lane, float32(math.NaN()))
		p.record(site, kind, lane)
	case KindSatBoundary:
		lane := int(p.next() % 4)
		v.SetI16(lane, 0x7FFF)
		p.record(site, kind, lane)
	}
	return v
}

// Skew implements Injector: a one-element address slip on a load/store.
func (p *Plan) Skew(site Site, slack int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if slack <= 0 || !p.kinds[KindIndexSkew] {
		return 0
	}
	if !p.fire(site) {
		return 0
	}
	p.record(site, KindIndexSkew, 1)
	return 1
}

// Injected returns the total number of faults injected so far.
func (p *Plan) Injected() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// Calls returns the number of fault opportunities seen so far.
func (p *Plan) Calls() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// Stats is a snapshot of a Plan's injection counters.
type Stats struct {
	Calls    uint64
	Injected uint64
	BySite   map[Site]uint64
	ByKind   map[Kind]uint64
	Events   []Event
}

// Snapshot returns a copy of the Plan's counters and retained events.
func (p *Plan) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Calls:    p.calls,
		Injected: p.injected,
		BySite:   make(map[Site]uint64),
		ByKind:   make(map[Kind]uint64),
		Events:   append([]Event(nil), p.events...),
	}
	for s, n := range p.bySite {
		if n > 0 {
			st.BySite[Site(s)] = n
		}
	}
	for k, n := range p.byKind {
		if n > 0 {
			st.ByKind[Kind(k)] = n
		}
	}
	return st
}

// Reseeder is the optional stream-seeding extension of Injector. The kernel
// library reseeds the injector at every row (or element-block) boundary with
// a salt derived from (kernel pass, row index), making the injection
// schedule a pure function of the workload's geometry rather than of the
// global intrinsic call order. That is what keeps fault campaigns
// bit-deterministic when rows execute on different goroutines: any band
// layout draws the same per-row streams.
type Reseeder interface {
	Injector
	// Reseed rewinds the decision stream to a position derived from the
	// plan's seed and the given salt. Counters are unaffected.
	Reseed(salt uint64)
}

// Forker is the optional band-fan-out extension of Injector. A parallel
// kernel section forks one child per band, points each band's emulation
// units at its child, and joins the children back (in band order) when the
// section completes, so the parent's counters and event log stay exact and
// deterministic while bands never contend on one decision stream.
type Forker interface {
	Injector
	// Fork returns a child injector sharing this injector's configuration
	// with fresh counters.
	Fork() Injector
	// Join folds a child's counters and events back into this injector.
	Join(child Injector)
}

// Reseed implements Reseeder: it rewinds the xorshift stream to a position
// mixed from the plan seed and salt (splitmix64 finalization, so nearby
// salts land on well-separated streams). Counters keep accumulating.
func (p *Plan) Reseed(salt uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	z := p.seed + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = p.seed
	}
	p.s = z
}

// Fork implements Forker.
func (p *Plan) Fork() Injector {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := &Plan{
		rate:     p.rate,
		seed:     p.seed,
		s:        p.seed,
		sites:    p.sites,
		kinds:    p.kinds,
		eventCap: p.eventCap,
	}
	return c
}

// Join implements Forker: child counters and events are added to p. Children
// that are not *Plan (or nil) are ignored.
func (p *Plan) Join(child Injector) {
	c, ok := child.(*Plan)
	if !ok || c == nil || c == p {
		return
	}
	c.mu.Lock()
	calls, injected := c.calls, c.injected
	bySite, byKind := c.bySite, c.byKind
	events := append([]Event(nil), c.events...)
	c.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls += calls
	p.injected += injected
	for i, n := range bySite {
		p.bySite[i] += n
	}
	for i, n := range byKind {
		p.byKind[i] += n
	}
	for _, e := range events {
		if len(p.events) >= p.eventCap {
			break
		}
		p.events = append(p.events, e)
	}
}

// RestoreCounters sets the opportunity and injection totals to a previously
// checkpointed position, for crash-safe campaign resume: after a restart,
// the harness replays journaled per-image deltas and then fast-forwards the
// plan's totals so the remainder of the run accumulates from where the
// killed process left off. The decision stream is untouched — campaign
// kernels reseed it per (pass, row), so stream position is a function of
// the workload, not of these counters. The per-site/per-kind breakdowns and
// the retained event log are process-local diagnostics and are not
// restored.
func (p *Plan) RestoreCounters(calls, injected uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls, p.injected = calls, injected
}

// Reset zeroes the counters and rewinds the random stream to the seed, so
// the same workload replays the same faults.
func (p *Plan) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls, p.injected = 0, 0
	p.bySite = [numSites]uint64{}
	p.byKind = [numKinds]uint64{}
	p.events = nil
	p.s = p.seed
}

// Summary renders the snapshot for CLI output.
func (st Stats) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "opportunities=%d injected=%d", st.Calls, st.Injected)
	if len(st.ByKind) > 0 {
		kinds := make([]string, 0, len(st.ByKind))
		for k, n := range st.ByKind {
			kinds = append(kinds, fmt.Sprintf("%v=%d", k, n))
		}
		sort.Strings(kinds)
		fmt.Fprintf(&sb, " kinds[%s]", strings.Join(kinds, " "))
	}
	if len(st.BySite) > 0 {
		sites := make([]string, 0, len(st.BySite))
		for s, n := range st.BySite {
			sites = append(sites, fmt.Sprintf("%v=%d", s, n))
		}
		sort.Strings(sites)
		fmt.Fprintf(&sb, " sites[%s]", strings.Join(sites, " "))
	}
	return sb.String()
}
