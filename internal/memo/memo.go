// Package memo is the result cache for kernel outputs: a sharded,
// byte-budgeted LRU with singleflight request coalescing, so repeated work
// costs a lookup instead of a kernel run and N concurrent identical
// requests execute the kernel exactly once.
//
// It holds two kinds of entry, keyed two ways:
//
//   - Request entries (DoSum, keyed by RequestKey) serve simdserved. A
//     response carries only the checksum of the output plane, and the
//     request tuple (kernel, ISA, parameter and fuse signature, width,
//     height, seed) fixes the input plane, because the synthetic
//     generators are pure functions within one binary. An entry therefore
//     holds just the response checksum: a hit synthesizes nothing, hashes
//     no plane and copies no plane.
//   - Content entries (Do, keyed by KeyFor's fingerprint of the parameter
//     set and the input plane bytes) serve callers that need the output
//     plane itself, such as harness campaigns and the public API.
//
// The cache is paranoid about what it serves. A content entry carries a
// check word over its plane (planeCheck) and a request entry a check word
// binding its response checksum to its key; both are re-verified on every
// hit, and an entry that rotted in memory is evicted and recomputed,
// never served (memo_corrupt_evictions_total counts those). Entries are
// keyed by ISA because emulated units are not bit-identical across lanes
// everywhere (NEON's float→short convert rounds one LSB differently from
// scalar), and Invalidate drops every entry for a (kernel, ISA) pair the
// moment the integrity scoreboard quarantines it or a breaker
// force-opens: a unit caught corrupting forfeits its cached history along
// with its dispatch rights. A computation already in flight when its pair
// is invalidated still answers its callers but is not stored.
//
// Coalescing is cancellation-safe by construction, and one loop serves
// both entry kinds. Leadership of an in-flight computation is a token in
// a 1-buffered channel: the first caller takes it and computes; waiters
// select on {result, own ctx, token}. A leader whose context dies returns
// the token instead of publishing an error, so a surviving waiter
// promotes itself and recomputes under its own deadline — a cancelled
// leader never poisons the flight for the requests coalesced behind it.
package memo

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/obs"
)

// Key identifies one memoizable result: the kernel and ISA by name (kept
// out of the hash so Invalidate can match them) plus a 64-bit content
// fingerprint covering the parameter set and the input plane bytes.
type Key struct {
	Kernel string
	ISA    string
	Hash   uint64
}

// RequestKey identifies one served response by the exact request tuple
// that fixes it. Entries compare the whole tuple, so two requests share an
// entry only when every field is equal; no hash collision can serve one
// request another's result.
type RequestKey struct {
	Kernel string
	ISA    string
	// Params is the kernel's parameter signature and the fuse/strip
	// signature: every knob besides the input that can change the output.
	Params string
	Width  int
	Height int
	Seed   uint64
}

// slot is the cache's internal key: a RequestKey, or a content Key folded
// into its Kernel, ISA and hash with content set. Maps compare the whole
// slot.
type slot struct {
	RequestKey
	hash    uint64
	content bool
}

func contentSlot(k Key) slot {
	return slot{RequestKey: RequestKey{Kernel: k.Kernel, ISA: k.ISA}, hash: k.Hash, content: true}
}

// fold summarizes the slot in 64 bits: it picks the shard and salts a
// request entry's check word. A content slot folds to its fingerprint.
func (s slot) fold() uint64 {
	if s.content {
		return s.hash
	}
	h := foldString(fnv64Offset, s.Kernel)
	h = foldString(h, s.ISA)
	h = foldString(h, s.Params)
	h = fold64(h, uint64(s.Width))
	h = fold64(h, uint64(s.Height))
	return fold64(h, s.Seed)
}

// checkWord binds a request entry's response checksum to its key's fold.
// It is a bijection of sum for a fixed fold, so flipping any bit of the
// stored checksum, or of the stored check word, breaks the relation.
func checkWord(fold, sum uint64) uint64 {
	x := fold ^ sum*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// 64-bit FNV-1a, used to fold the parameter string, geometry and the
// 32-bit block sums of the input plane into Key.Hash.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

func fold64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnv64Prime
		v >>= 8
	}
	return h
}

func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnv64Prime
	}
	// Terminate so ("ab","c") and ("a","bc") hash differently.
	return (h ^ 0xff) * fnv64Prime
}

// KeyFor derives the content key for running kernel on src under isa with
// the given parameter signature. params must capture every knob that can
// change the output bytes (kernel thresholds, fuse/strip configuration);
// the input plane itself is folded in via its blockwise FNV PlaneSum, so
// two byte-identical inputs share a key regardless of how they were
// produced.
func KeyFor(kernel, isa, params string, src *image.Mat) Key {
	h := fnv64Offset
	h = foldString(h, params)
	h = fold64(h, uint64(src.Width))
	h = fold64(h, uint64(src.Height))
	h = fold64(h, uint64(src.Kind))
	h = fold64(h, integrity.SumMat(src, 0).Fold64())
	return Key{Kernel: kernel, ISA: isa, Hash: h}
}

// Outcome classifies how Do or DoSum satisfied a request.
type Outcome int

// Do and DoSum outcomes. Bypass means memoization was disabled for the
// kernel and compute ran directly.
const (
	Bypass    Outcome = iota
	Hit               // served from the cache, entry verified
	Miss              // this caller led the computation
	Coalesced         // waited on another caller's computation and took its result
)

// String names the outcome as exposed in the X-Memo response header.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "bypass"
}

// Config sizes the cache.
type Config struct {
	// MaxBytes is the total byte budget across all shards: a content
	// entry is charged its plane bytes, a request entry its heap cost.
	// <= 0 disables the cache (New returns nil).
	MaxBytes int64
	// Shards is the number of independent LRU shards (key → shard by
	// its 64-bit fold). 0 selects 8. More shards cut lock contention on the hit
	// path; eviction order is deterministic per shard.
	Shards int
	// Kernels restricts memoization to the named kernels. Empty enables
	// every kernel.
	Kernels []string
	// Registry mirrors the cache counters as memo_* metrics. Optional.
	Registry *obs.Registry
}

// Stats is a point-in-time snapshot of cache effectiveness, exposed on
// the /memo debug view and the /metrics/stream frame.
type Stats struct {
	Entries          int    `json:"entries"`
	Bytes            int64  `json:"bytes"`
	BudgetBytes      int64  `json:"budget_bytes"`
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Coalesced        uint64 `json:"coalesced"`
	Evictions        uint64 `json:"evictions"`
	CorruptEvictions uint64 `json:"corrupt_evictions"`
	Invalidations    uint64 `json:"invalidations"`
}

// entry is one cached result: a content entry's plane and its check word,
// or a request entry's response checksum and its check word. The plane is
// owned by the cache and never mutated after insertion, so readers copy
// from it without holding the shard lock; eviction just drops the
// reference (no pooling of cache planes — a waiter may still be copying
// from an entry evicted under it).
type entry struct {
	key   slot
	plane *image.Mat
	resp  uint64 // request entries: the response checksum
	check uint64 // planeCheck(plane), or checkWord(key.fold(), resp)
	bytes int64
}

// respEntryBytes is what one request entry costs on the heap: the entry,
// its LRU element and its map slot (key, element pointer, control byte).
// The slot counts four times over: a table may be half empty right after
// it grows, and the table it grew out of stays on the heap until the next
// collection. TestRespEntryChargeCoversHeap holds the charge to at least
// the measured heap growth per insert.
const respEntryBytes = int64(unsafe.Sizeof(entry{})+unsafe.Sizeof(list.Element{})) +
	4*int64(unsafe.Sizeof(slot{})+unsafe.Sizeof(&list.Element{})+1)

func newRespEntry(k slot, sum uint64) *entry {
	return &entry{key: k, resp: sum, check: checkWord(k.fold(), sum), bytes: respEntryBytes}
}

func (e *entry) respOK() bool { return e.check == checkWord(e.key.fold(), e.resp) }

func (e *entry) planeOK(dst *image.Mat) bool {
	return e.check == planeCheck(e.plane) && copyInto(dst, e.plane)
}

// planeCheck is a content entry's check word: the plane read a 64-bit word
// at a time (eight U8, four S16 or two F32 elements) through four
// interleaved chains h = (h^w)·k, the tail element by element. Each step
// is a bijection of h for a fixed word and of the word for a fixed h, so
// changing any one word changes its chain and the xor of the four. One
// multiply per word, not the block fingerprint's two per S16 element,
// keeps a verified 5 Mpx hit several times cheaper than the conversion it
// replaces.
func planeCheck(m *image.Mat) uint64 {
	const k = 0x9e3779b97f4a7c15
	h0, h1, h2, h3 := uint64(1), uint64(2), uint64(3), uint64(4)
	switch m.Kind {
	case image.U8:
		p := m.U8Pix
		n := len(p) &^ 31
		for i := 0; i < n; i += 32 {
			q := p[i : i+32]
			h0 = (h0 ^ binary.LittleEndian.Uint64(q)) * k
			h1 = (h1 ^ binary.LittleEndian.Uint64(q[8:])) * k
			h2 = (h2 ^ binary.LittleEndian.Uint64(q[16:])) * k
			h3 = (h3 ^ binary.LittleEndian.Uint64(q[24:])) * k
		}
		for _, v := range p[n:] {
			h0 = (h0 ^ uint64(v)) * k
		}
	case image.S16:
		p := m.S16Pix
		n := len(p) &^ 15
		for i := 0; i < n; i += 16 {
			q := (*[16]int16)(p[i:])
			h0 = (h0 ^ pack16(q[0], q[1], q[2], q[3])) * k
			h1 = (h1 ^ pack16(q[4], q[5], q[6], q[7])) * k
			h2 = (h2 ^ pack16(q[8], q[9], q[10], q[11])) * k
			h3 = (h3 ^ pack16(q[12], q[13], q[14], q[15])) * k
		}
		for _, v := range p[n:] {
			h0 = (h0 ^ uint64(uint16(v))) * k
		}
	case image.F32:
		p := m.F32Pix
		n := len(p) &^ 7
		for i := 0; i < n; i += 8 {
			q := (*[8]float32)(p[i:])
			h0 = (h0 ^ pack32(q[0], q[1])) * k
			h1 = (h1 ^ pack32(q[2], q[3])) * k
			h2 = (h2 ^ pack32(q[4], q[5])) * k
			h3 = (h3 ^ pack32(q[6], q[7])) * k
		}
		for _, v := range p[n:] {
			h0 = (h0 ^ uint64(math.Float32bits(v))) * k
		}
	}
	return h0 ^ h1 ^ h2 ^ h3
}

// pack16 joins four 16-bit elements into a word, the first lowest.
func pack16(a, b, c, d int16) uint64 {
	return uint64(uint16(a)) | uint64(uint16(b))<<16 | uint64(uint16(c))<<32 | uint64(uint16(d))<<48
}

// pack32 joins two float32 elements' bits into a word, the first lowest.
func pack32(a, b float32) uint64 {
	return uint64(math.Float32bits(a)) | uint64(math.Float32bits(b))<<32
}

type shard struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[slot]*list.Element
	lru     *list.List // front = most recently used
}

// flight is one in-progress computation. token is the leadership baton
// (1-buffered, holds exactly one token over the flight's lifetime); done
// is closed when a result or terminal error is published.
type flight struct {
	token  chan struct{}
	done   chan struct{}
	result *entry // non-nil after done when the computation succeeded
	err    error  // non-nil after done on a terminal (non-cancellation) error
	refs   int    // callers joined; guarded by Cache.flightMu
}

// pair names a (kernel, ISA) pair, the unit Invalidate works on.
type pair struct{ kernel, isa string }

// Cache is the memoization layer. A nil *Cache is valid and disabled:
// Get reports a miss and Do runs compute directly.
type Cache struct {
	cfg     Config
	enabled map[string]bool // nil = all kernels
	shards  []*shard

	flightMu sync.Mutex
	flights  map[slot]*flight

	// gens counts Invalidate calls per (kernel, ISA) pair. A flight
	// stores its result only if its pair's generation has not moved
	// since its compute began.
	genMu sync.Mutex
	gens  map[pair]uint64

	// Authoritative tallies (registry counters mirror them so the cache
	// works without a registry).
	hits, misses, coalesced       atomic.Uint64
	evictions, corrupt, invalided atomic.Uint64

	// Pre-resolved metrics: the hit path must not pay the registry's
	// name→metric map lookup, let alone allocate.
	mHits, mMisses, mCoalesced     *obs.Counter
	mEvictions, mCorrupt, mInvalid *obs.Counter
	mBytes                         *obs.Gauge
	mHitSeconds                    *obs.Histogram
	reg                            *obs.Registry
}

// HitBuckets are the memo_hit_seconds histogram bounds: hits are lookups
// or plane copies, so the buckets run finer than request_seconds.
var HitBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1}

// New builds a cache from cfg, or returns nil (a valid, disabled cache)
// when the byte budget is zero.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	c := &Cache{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		flights: make(map[slot]*flight),
		gens:    make(map[pair]uint64),
		reg:     cfg.Registry,
	}
	per := cfg.MaxBytes / int64(cfg.Shards)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			budget:  per,
			entries: make(map[slot]*list.Element),
			lru:     list.New(),
		}
	}
	if len(cfg.Kernels) > 0 {
		c.enabled = make(map[string]bool, len(cfg.Kernels))
		for _, k := range cfg.Kernels {
			c.enabled[k] = true
		}
	}
	if r := cfg.Registry; r != nil {
		c.mHits = r.Counter("memo_hits_total")
		c.mMisses = r.Counter("memo_misses_total")
		c.mCoalesced = r.Counter("memo_coalesced_total")
		c.mEvictions = r.Counter("memo_evictions_total")
		c.mCorrupt = r.Counter("memo_corrupt_evictions_total")
		c.mInvalid = r.Counter("memo_invalidations_total")
		c.mBytes = r.Gauge("memo_bytes")
		c.mHitSeconds = r.Histogram("memo_hit_seconds", HitBuckets)
	}
	return c
}

// Enabled reports whether results for kernel are memoized.
func (c *Cache) Enabled(kernel string) bool {
	if c == nil {
		return false
	}
	return c.enabled == nil || c.enabled[kernel]
}

func (c *Cache) shardFor(fold uint64) *shard {
	return c.shards[int(fold%uint64(len(c.shards)))]
}

func (c *Cache) now() time.Time {
	if c.reg != nil {
		return c.reg.Now()
	}
	return time.Now()
}

// copyInto copies src's plane into dst, which must already have matching
// geometry and kind (guaranteed when both derive from the same Key).
func copyInto(dst, src *image.Mat) bool {
	if dst.Width != src.Width || dst.Height != src.Height || dst.Kind != src.Kind {
		return false
	}
	switch src.Kind {
	case image.U8:
		copy(dst.U8Pix, src.U8Pix)
	case image.S16:
		copy(dst.S16Pix, src.S16Pix)
	case image.F32:
		copy(dst.F32Pix, src.F32Pix)
	default:
		return false
	}
	return true
}

// lookup returns k's resident entry, moved to the front of its shard's
// LRU, or nil.
func (c *Cache) lookup(k slot) (*list.Element, *entry) {
	sh := c.shardFor(k.fold())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[k]
	if !ok {
		return nil, nil
	}
	sh.lru.MoveToFront(el)
	return el, el.Value.(*entry)
}

// hit counts one verified hit that began at start.
func (c *Cache) hit(ctx context.Context, start time.Time) {
	c.hits.Add(1)
	c.mHits.Inc()
	c.mHitSeconds.ObserveExemplar(time.Since(start).Seconds(), obs.TraceID(ctx), c.now())
}

// Get serves key from the cache into dst if present: the stored plane is
// re-verified against its check word and copied out. A checksum
// mismatch — the plane rotted while cached — evicts the entry and reports
// a miss so the caller recomputes. Get does not count misses (Do owns
// that tally); the hit path performs no allocation.
func (c *Cache) Get(ctx context.Context, key Key, dst *image.Mat) bool {
	if c == nil {
		return false
	}
	start := c.now()
	k := contentSlot(key)
	el, e := c.lookup(k)
	if e == nil {
		return false
	}
	// Verify and copy outside the lock: the plane is immutable once
	// stored and eviction only drops references, so concurrent evict or
	// re-store cannot race this read.
	if !e.planeOK(dst) {
		c.evictCorrupt(k, el)
		return false
	}
	c.hit(ctx, start)
	return true
}

// getSum is Get for a request entry: it returns the stored response
// checksum once the entry's check word verifies, and evicts an entry
// whose check fails. It performs no allocation.
func (c *Cache) getSum(ctx context.Context, k slot) (uint64, bool) {
	start := c.now()
	el, e := c.lookup(k)
	if e == nil {
		return 0, false
	}
	if !e.respOK() {
		c.evictCorrupt(k, el)
		return 0, false
	}
	c.hit(ctx, start)
	return e.resp, true
}

// evictCorrupt removes an entry that failed its on-hit verification, if
// it is still the resident entry for its key.
func (c *Cache) evictCorrupt(k slot, el *list.Element) {
	sh := c.shardFor(k.fold())
	sh.mu.Lock()
	if cur, ok := sh.entries[k]; ok && cur == el {
		e := cur.Value.(*entry)
		sh.lru.Remove(cur)
		delete(sh.entries, k)
		sh.bytes -= e.bytes
		c.corrupt.Add(1)
		c.mCorrupt.Inc()
		c.mBytes.Add(-float64(e.bytes))
	}
	sh.mu.Unlock()
}

// generation returns the invalidation count of k's (kernel, ISA) pair.
func (c *Cache) generation(k slot) uint64 {
	c.genMu.Lock()
	defer c.genMu.Unlock()
	return c.gens[pair{k.Kernel, k.ISA}]
}

// store inserts e, evicting least-recently-used entries until the shard
// fits its budget, and returns e for the flight's waiters. It keeps
// nothing when e is bigger than the whole shard budget, or when e's pair
// was invalidated after its compute began (its generation is no longer
// gen). Invalidate bumps the generation before it takes any shard lock,
// so checking it under the shard lock cannot miss an invalidation.
func (c *Cache) store(e *entry, gen uint64) *entry {
	sh := c.shardFor(e.key.fold())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.bytes > sh.budget || c.generation(e.key) != gen {
		return e // serve to waiters, do not keep
	}
	if old, ok := sh.entries[e.key]; ok {
		oe := old.Value.(*entry)
		sh.lru.Remove(old)
		delete(sh.entries, e.key)
		sh.bytes -= oe.bytes
	}
	for sh.bytes+e.bytes > sh.budget {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		be := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.entries, be.key)
		sh.bytes -= be.bytes
		c.evictions.Add(1)
		c.mEvictions.Inc()
		c.mBytes.Add(-float64(be.bytes))
	}
	sh.entries[e.key] = sh.lru.PushFront(e)
	sh.bytes += e.bytes
	c.mBytes.Add(float64(e.bytes))
	return e
}

// Do satisfies key into dst: from the cache (Hit), by waiting on an
// identical in-flight computation (Coalesced), or by running compute
// itself (Miss). compute must fill dst; on success Do copies dst into the
// cache for future hits and hands copies to every coalesced waiter.
//
// Error semantics: a terminal compute error (kernel fault, stall, shed)
// is broadcast to all coalesced waiters — they would fail identically.
// A cancellation error (compute's context died) is returned only to the
// cancelled leader; leadership passes to a surviving waiter, which
// recomputes under its own context.
func (c *Cache) Do(ctx context.Context, key Key, dst *image.Mat, compute func(context.Context) error) (Outcome, error) {
	if c == nil || !c.Enabled(key.Kernel) {
		return Bypass, compute(ctx)
	}
	if c.Get(ctx, key, dst) {
		return Hit, nil
	}
	k := contentSlot(key)
	return c.fly(ctx, k, func(ctx context.Context) (*entry, error) {
		if err := compute(ctx); err != nil {
			return nil, err
		}
		plane := dst.Clone()
		return &entry{key: k, plane: plane, check: planeCheck(plane), bytes: int64(dst.Bytes())}, nil
	}, func(e *entry) bool { return e.planeOK(dst) })
}

// DoSum is Do for a served response: it returns the response checksum
// for key from a request entry (Hit), from an identical in-flight
// computation (Coalesced), or by running compute (Miss), which returns
// the checksum and is stored for later hits. Errors behave as in Do. The
// hit path performs no allocation.
func (c *Cache) DoSum(ctx context.Context, key RequestKey, compute func(context.Context) (uint64, error)) (uint64, Outcome, error) {
	if c == nil || !c.Enabled(key.Kernel) {
		sum, err := compute(ctx)
		return sum, Bypass, err
	}
	k := slot{RequestKey: key}
	if sum, ok := c.getSum(ctx, k); ok {
		return sum, Hit, nil
	}
	return c.flySum(ctx, k, compute)
}

// flySum runs DoSum's miss through the flight loop. It is split from DoSum
// so the checksum the closures share is allocated on misses only.
func (c *Cache) flySum(ctx context.Context, k slot, compute func(context.Context) (uint64, error)) (uint64, Outcome, error) {
	var sum uint64
	out, err := c.fly(ctx, k, func(ctx context.Context) (*entry, error) {
		s, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		sum = s
		return newRespEntry(k, s), nil
	}, func(e *entry) bool {
		if !e.respOK() {
			return false
		}
		sum = e.resp
		return true
	})
	return sum, out, err
}

// fly runs the coalescing protocol for k after a cache miss. The caller
// joins k's flight or starts one. Whoever holds the token runs lead,
// stores the entry lead builds, and publishes it. A waiter hands the
// published entry to take; if take rejects it (the entry rotted before
// the waiter read it), the waiter reruns lead for itself without storing.
func (c *Cache) fly(ctx context.Context, k slot, lead func(context.Context) (*entry, error), take func(*entry) bool) (Outcome, error) {
	c.flightMu.Lock()
	f, ok := c.flights[k]
	if !ok {
		f = &flight{token: make(chan struct{}, 1), done: make(chan struct{})}
		f.token <- struct{}{}
		c.flights[k] = f
	}
	f.refs++
	c.flightMu.Unlock()

	for {
		select {
		case <-f.done:
			c.leave(k, f)
			if f.err != nil {
				return Coalesced, f.err
			}
			if !take(f.result) {
				// The freshly published entry rotted before this waiter
				// read it. Do not serve it; recompute directly.
				c.corrupt.Add(1)
				c.mCorrupt.Inc()
				if _, err := lead(ctx); err != nil {
					return Coalesced, err
				}
				return Miss, nil
			}
			c.coalesced.Add(1)
			c.mCoalesced.Inc()
			return Coalesced, nil

		case <-ctx.Done():
			c.leave(k, f)
			return Coalesced, ctx.Err()

		case <-f.token:
			gen := c.generation(k)
			e, err := c.runLead(ctx, k, f, lead)
			if err != nil {
				if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					// Cancelled leader: hand the token back so a waiter
					// can promote itself, and fail only this caller.
					f.token <- struct{}{}
					c.leave(k, f)
					return Miss, err
				}
				f.err = err
				c.unmap(k, f) // later callers start a fresh flight
				close(f.done)
				c.leave(k, f)
				return Miss, err
			}
			f.result = c.store(e, gen)
			c.unmap(k, f)
			close(f.done)
			c.leave(k, f)
			c.misses.Add(1)
			c.mMisses.Inc()
			return Miss, nil
		}
	}
}

// runLead runs lead for the flight's token holder. A lead that panics
// hands the token back and drops the leader's reference before the panic
// goes on up, so a waiter can promote itself and a later caller finds no
// stranded flight to wait out its deadline on.
func (c *Cache) runLead(ctx context.Context, k slot, f *flight, lead func(context.Context) (*entry, error)) (*entry, error) {
	returned := false
	defer func() {
		if !returned {
			f.token <- struct{}{}
			c.leave(k, f)
		}
	}()
	e, err := lead(ctx)
	returned = true
	return e, err
}

// leave drops one flight reference; the last participant out unmaps the
// flight (if a publish has not already done so).
func (c *Cache) leave(k slot, f *flight) {
	c.flightMu.Lock()
	f.refs--
	if f.refs == 0 && c.flights[k] == f {
		delete(c.flights, k)
	}
	c.flightMu.Unlock()
}

// unmap removes f from the flight table so callers arriving after a
// publish consult the cache (or start a fresh flight) instead of joining
// a finished one.
func (c *Cache) unmap(k slot, f *flight) {
	c.flightMu.Lock()
	if c.flights[k] == f {
		delete(c.flights, k)
	}
	c.flightMu.Unlock()
}

// InFlight reports the live coalescing state: how many computations are
// currently in flight and how many callers (leaders plus waiters) are
// participating in them. Transient by nature — exposed for the /memo
// debug view and deterministic coalescing tests, not for accounting.
func (c *Cache) InFlight() (flights, participants int) {
	if c == nil {
		return 0, 0
	}
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	for _, f := range c.flights {
		flights++
		participants += f.refs
	}
	return flights, participants
}

// Invalidate drops every cached entry for the (kernel, isa) pair and
// returns how many were removed; a computation for the pair already in
// flight still answers its callers but is not stored. Wired to breaker
// force-open and integrity-scoreboard quarantine: a unit caught
// corrupting loses its cached results along with its dispatch rights.
func (c *Cache) Invalidate(kernel, isa string) int {
	if c == nil {
		return 0
	}
	c.genMu.Lock()
	c.gens[pair{kernel, isa}]++
	c.genMu.Unlock()
	removed := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for k, el := range sh.entries {
			if k.Kernel != kernel || k.ISA != isa {
				continue
			}
			e := el.Value.(*entry)
			sh.lru.Remove(el)
			delete(sh.entries, k)
			sh.bytes -= e.bytes
			removed++
			c.mBytes.Add(-float64(e.bytes))
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		c.invalided.Add(uint64(removed))
		c.mInvalid.Add(uint64(removed))
	}
	return removed
}

// Stats snapshots the cache tallies and current occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		BudgetBytes:      c.cfg.MaxBytes,
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Coalesced:        c.coalesced.Load(),
		Evictions:        c.evictions.Load(),
		CorruptEvictions: c.corrupt.Load(),
		Invalidations:    c.invalided.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// Kernels reports the per-kernel entry and byte occupancy, keyed
// "kernel/isa" — the /memo debug view's breakdown.
func (c *Cache) Kernels() map[string]struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
} {
	out := make(map[string]struct {
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	})
	if c == nil {
		return out
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for k, el := range sh.entries {
			e := el.Value.(*entry)
			v := out[k.Kernel+"/"+k.ISA]
			v.Entries++
			v.Bytes += e.bytes
			out[k.Kernel+"/"+k.ISA] = v
		}
		sh.mu.Unlock()
	}
	return out
}
