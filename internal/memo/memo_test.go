package memo

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdstudy/internal/image"
	"simdstudy/internal/obs"
)

// fillDst is the stand-in kernel: a deterministic, input-dependent
// transform so byte-identity checks mean something.
func fillDst(dst *image.Mat, seed uint8) {
	for i := range dst.U8Pix {
		dst.U8Pix[i] = uint8(i)*3 + seed
	}
}

func testKey(t *testing.T, kernel, isa string, seed uint64) Key {
	t.Helper()
	src := image.Synthetic(image.Res03MP, seed)
	return KeyFor(kernel, isa, "p=1", src)
}

func TestKeyForContentAddressing(t *testing.T) {
	srcA := image.Synthetic(image.Res03MP, 1)
	srcB := image.Synthetic(image.Res03MP, 1) // same bytes, separate allocation
	srcC := image.Synthetic(image.Res03MP, 2)

	k1 := KeyFor("gaussian", "neon", "sigma=1", srcA)
	k2 := KeyFor("gaussian", "neon", "sigma=1", srcB)
	if k1 != k2 {
		t.Fatalf("byte-identical inputs produced different keys: %+v vs %+v", k1, k2)
	}
	if k3 := KeyFor("gaussian", "neon", "sigma=1", srcC); k3.Hash == k1.Hash {
		t.Fatalf("different input content produced same hash %#x", k1.Hash)
	}
	if k4 := KeyFor("gaussian", "neon", "sigma=2", srcA); k4.Hash == k1.Hash {
		t.Fatalf("different params produced same hash %#x", k1.Hash)
	}
	if k5 := KeyFor("gaussian", "sse2", "sigma=1", srcA); k5 == k1 {
		t.Fatalf("different ISA produced identical key")
	}
	// Param-string boundary: ("ab","c...") must not collide with ("a","bc...").
	if KeyFor("g", "n", "ab", srcA).Hash == KeyFor("g", "n", "a", srcA).Hash {
		t.Fatalf("param strings of different length collided")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	dst := image.NewMat(8, 8, image.U8)
	key := Key{Kernel: "k", ISA: "neon", Hash: 1}
	if c.Get(context.Background(), key, dst) {
		t.Fatal("nil cache reported a hit")
	}
	ran := false
	out, err := c.Do(context.Background(), key, dst, func(context.Context) error { ran = true; return nil })
	if err != nil || out != Bypass || !ran {
		t.Fatalf("nil cache Do = (%v, %v), ran=%v; want Bypass passthrough", out, err, ran)
	}
	if got := c.Invalidate("k", "neon"); got != 0 {
		t.Fatalf("nil cache Invalidate = %d", got)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache Stats = %+v", st)
	}
	if New(Config{MaxBytes: 0}) != nil {
		t.Fatal("New with zero budget should return nil")
	}
}

func TestKernelEnableList(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Kernels: []string{"gaussian"}})
	if !c.Enabled("gaussian") || c.Enabled("canny") {
		t.Fatalf("enable list not respected: gaussian=%v canny=%v",
			c.Enabled("gaussian"), c.Enabled("canny"))
	}
	dst := image.NewMat(8, 8, image.U8)
	out, err := c.Do(context.Background(), Key{Kernel: "canny", ISA: "neon", Hash: 9}, dst,
		func(context.Context) error { return nil })
	if err != nil || out != Bypass {
		t.Fatalf("disabled kernel Do = (%v, %v); want Bypass", out, err)
	}
}

func TestMissThenHitServesIdenticalPlane(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxBytes: 1 << 24, Registry: reg})
	key := testKey(t, "gaussian", "neon", 1)

	dst1 := image.NewMat(64, 32, image.U8)
	out, err := c.Do(context.Background(), key, dst1, func(context.Context) error {
		fillDst(dst1, 7)
		return nil
	})
	if err != nil || out != Miss {
		t.Fatalf("first Do = (%v, %v); want Miss", out, err)
	}

	dst2 := image.NewMat(64, 32, image.U8)
	out, err = c.Do(context.Background(), key, dst2, func(context.Context) error {
		t.Error("compute ran on what should be a hit")
		return nil
	})
	if err != nil || out != Hit {
		t.Fatalf("second Do = (%v, %v); want Hit", out, err)
	}
	if !dst1.EqualTo(dst2) {
		t.Fatal("hit plane differs from computed plane")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
	if v := reg.Counter("memo_hits_total").Value(); v != 1 {
		t.Fatalf("memo_hits_total = %d; want 1", v)
	}
}

// TestCoalescing is the acceptance-criteria test: N concurrent identical
// requests run the kernel exactly once and memo_coalesced_total == N-1.
func TestCoalescing(t *testing.T) {
	const n = 8
	reg := obs.NewRegistry()
	c := New(Config{MaxBytes: 1 << 24, Registry: reg})
	key := testKey(t, "gaussian", "neon", 3)

	var computes atomic.Int64
	started := make(chan struct{}) // leader entered compute
	release := make(chan struct{}) // all followers joined; leader may finish

	var wg sync.WaitGroup
	dsts := make([]*image.Mat, n)
	outs := make([]Outcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		dsts[i] = image.NewMat(64, 32, image.U8)
	}

	// First goroutine becomes the leader; it blocks in compute until every
	// other goroutine has had time to join the flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		outs[0], errs[0] = c.Do(context.Background(), key, dsts[0], func(context.Context) error {
			computes.Add(1)
			close(started)
			<-release
			fillDst(dsts[0], 9)
			return nil
		})
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c.Do(context.Background(), key, dsts[i], func(context.Context) error {
				computes.Add(1)
				fillDst(dsts[i], 9)
				return nil
			})
		}(i)
	}
	// Release the leader only once every waiter is a participant in the
	// flight, not merely started: a waiter still on its way to Do when the
	// leader publishes would hit the cache instead of coalescing.
	waitForFlight(t, c, key, n)
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("kernel executed %d times for %d concurrent identical requests; want 1", got, n)
	}
	if outs[0] != Miss || errs[0] != nil {
		t.Fatalf("leader outcome = (%v, %v); want Miss", outs[0], errs[0])
	}
	var coalesced int
	for i := 1; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d error: %v", i, errs[i])
		}
		switch outs[i] {
		case Coalesced, Hit: // a slow waiter may arrive after publish and hit the cache
			if outs[i] == Coalesced {
				coalesced++
			}
		default:
			t.Fatalf("waiter %d outcome = %v", i, outs[i])
		}
		if !dsts[i].EqualTo(dsts[0]) {
			t.Fatalf("waiter %d plane differs from leader's", i)
		}
	}
	// Every waiter joined the flight before the leader published, so none
	// can have degraded to a cache hit: coalesced must be exactly N-1.
	if v := reg.Counter("memo_coalesced_total").Value(); v != n-1 || coalesced != n-1 {
		t.Fatalf("memo_coalesced_total = %d (outcomes %d); want %d", v, coalesced, n-1)
	}
}

// TestCancelledLeaderHandoff: a leader whose context dies returns the
// leadership token; a waiter promotes itself, recomputes under its own
// context and publishes — the flight is never poisoned.
func TestCancelledLeaderHandoff(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 24})
	key := testKey(t, "gaussian", "neon", 4)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inCompute := make(chan struct{})
	leaderDst := image.NewMat(64, 32, image.U8)
	waiterDst := image.NewMat(64, 32, image.U8)

	var wg sync.WaitGroup
	var leaderOut Outcome
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderOut, leaderErr = c.Do(leaderCtx, key, leaderDst, func(ctx context.Context) error {
			close(inCompute)
			<-ctx.Done()
			return ctx.Err()
		})
	}()
	<-inCompute

	var waiterOut Outcome
	var waiterErr error
	waiterComputed := false
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiterOut, waiterErr = c.Do(context.Background(), key, waiterDst, func(ctx context.Context) error {
			waiterComputed = true
			fillDst(waiterDst, 5)
			return nil
		})
	}()

	// Give the waiter a moment to join the flight, then kill the leader.
	waitForFlight(t, c, key, 2)
	cancelLeader()
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) || leaderOut != Miss {
		t.Fatalf("leader = (%v, %v); want (Miss, context.Canceled)", leaderOut, leaderErr)
	}
	if waiterErr != nil || waiterOut != Miss || !waiterComputed {
		t.Fatalf("promoted waiter = (%v, %v), computed=%v; want clean Miss", waiterOut, waiterErr, waiterComputed)
	}
	// The promoted waiter's result must be cached and intact.
	check := image.NewMat(64, 32, image.U8)
	if !c.Get(context.Background(), key, check) || !check.EqualTo(waiterDst) {
		t.Fatal("promoted waiter's result not served from cache")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d; want 1 (cancelled leader does not count)", st.Misses)
	}
}

// waitForFlight spins until the flight for key has n participants.
func waitForFlight(t *testing.T, c *Cache, key Key, n int) {
	t.Helper()
	k := contentSlot(key)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		c.flightMu.Lock()
		f := c.flights[k]
		refs := 0
		if f != nil {
			refs = f.refs
		}
		c.flightMu.Unlock()
		if refs >= n {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("flight for %+v never reached %d participants", key, n)
}

func TestTerminalErrorBroadcast(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 24})
	key := testKey(t, "gaussian", "neon", 5)
	kernelErr := errors.New("simd lane fault")

	inCompute := make(chan struct{})
	release := make(chan struct{})
	leaderDst := image.NewMat(64, 32, image.U8)
	waiterDst := image.NewMat(64, 32, image.U8)

	var wg sync.WaitGroup
	var leaderErr, waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = c.Do(context.Background(), key, leaderDst, func(context.Context) error {
			close(inCompute)
			<-release
			return kernelErr
		})
	}()
	<-inCompute
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, waiterErr = c.Do(context.Background(), key, waiterDst, func(context.Context) error {
			t.Error("waiter recomputed after terminal error broadcast")
			return nil
		})
	}()
	waitForFlight(t, c, key, 2)
	close(release)
	wg.Wait()

	if !errors.Is(leaderErr, kernelErr) || !errors.Is(waiterErr, kernelErr) {
		t.Fatalf("errors = leader %v, waiter %v; want both %v", leaderErr, waiterErr, kernelErr)
	}
	// Errors are not cached: the next Do recomputes cleanly.
	dst := image.NewMat(64, 32, image.U8)
	out, err := c.Do(context.Background(), key, dst, func(context.Context) error {
		fillDst(dst, 1)
		return nil
	})
	if err != nil || out != Miss {
		t.Fatalf("Do after failed flight = (%v, %v); want fresh Miss", out, err)
	}
}

// TestEvictionOrderDeterminism: with one shard and a budget of three
// entries, inserting four keys must evict exactly the least recently
// used, identically on every run.
func TestEvictionOrderDeterminism(t *testing.T) {
	for run := 0; run < 3; run++ {
		c := New(Config{MaxBytes: 3 * 64 * 32, Shards: 1})
		keys := make([]Key, 4)
		for i := range keys {
			keys[i] = testKey(t, "gaussian", "neon", uint64(10+i))
			dst := image.NewMat(64, 32, image.U8)
			out, err := c.Do(context.Background(), keys[i], dst, func(context.Context) error {
				fillDst(dst, uint8(i))
				return nil
			})
			if err != nil || out != Miss {
				t.Fatalf("run %d insert %d = (%v, %v)", run, i, out, err)
			}
		}
		probe := image.NewMat(64, 32, image.U8)
		if c.Get(context.Background(), keys[0], probe) {
			t.Fatalf("run %d: oldest key survived a full cache", run)
		}
		for i := 1; i < 4; i++ {
			if !c.Get(context.Background(), keys[i], probe) {
				t.Fatalf("run %d: key %d evicted out of LRU order", run, i)
			}
		}
		if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
			t.Fatalf("run %d stats = %+v; want 1 eviction, 3 entries", run, st)
		}
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	c := New(Config{MaxBytes: 2 * 64 * 32, Shards: 1})
	k1 := testKey(t, "g", "neon", 21)
	k2 := testKey(t, "g", "neon", 22)
	k3 := testKey(t, "g", "neon", 23)
	insert := func(k Key, seed uint8) {
		dst := image.NewMat(64, 32, image.U8)
		if _, err := c.Do(context.Background(), k, dst, func(context.Context) error {
			fillDst(dst, seed)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert(k1, 1)
	insert(k2, 2)
	probe := image.NewMat(64, 32, image.U8)
	if !c.Get(context.Background(), k1, probe) { // touch k1: k2 becomes LRU
		t.Fatal("k1 missing")
	}
	insert(k3, 3) // must evict k2, not k1
	if !c.Get(context.Background(), k1, probe) {
		t.Fatal("hit did not refresh k1's LRU position")
	}
	if c.Get(context.Background(), k2, probe) {
		t.Fatal("k2 should have been evicted as least recently used")
	}
}

func TestOversizedResultServedNotCached(t *testing.T) {
	// Budget below one entry: Do must still serve the result, just not keep it.
	c := New(Config{MaxBytes: 64, Shards: 1})
	key := testKey(t, "g", "neon", 31)
	dst := image.NewMat(64, 32, image.U8)
	out, err := c.Do(context.Background(), key, dst, func(context.Context) error {
		fillDst(dst, 4)
		return nil
	})
	if err != nil || out != Miss {
		t.Fatalf("Do = (%v, %v)", out, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry was cached: %+v", st)
	}
}

// TestCorruptEntryEvictedAndRecomputed: a cached plane that rots in
// memory must be caught by the on-hit checksum, evicted, counted in
// memo_corrupt_evictions_total and transparently recomputed.
func TestCorruptEntryEvictedAndRecomputed(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxBytes: 1 << 24, Registry: reg})
	key := testKey(t, "gaussian", "neon", 6)

	dst := image.NewMat(64, 32, image.U8)
	if _, err := c.Do(context.Background(), key, dst, func(context.Context) error {
		fillDst(dst, 8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the cached plane behind the cache's back.
	resident(t, c, contentSlot(key), func(e *entry) { e.plane.U8Pix[17] ^= 0x40 })

	probe := image.NewMat(64, 32, image.U8)
	if c.Get(context.Background(), key, probe) {
		t.Fatal("corrupt cached plane served as a hit")
	}
	if v := reg.Counter("memo_corrupt_evictions_total").Value(); v != 1 {
		t.Fatalf("memo_corrupt_evictions_total = %d; want 1", v)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("corrupt entry not evicted: %+v", st)
	}

	// Do recomputes and re-stores; the fresh entry verifies and hits.
	recomputed := false
	dst2 := image.NewMat(64, 32, image.U8)
	out, err := c.Do(context.Background(), key, dst2, func(context.Context) error {
		recomputed = true
		fillDst(dst2, 8)
		return nil
	})
	if err != nil || out != Miss || !recomputed {
		t.Fatalf("recompute = (%v, %v), ran=%v", out, err, recomputed)
	}
	if !c.Get(context.Background(), key, probe) || !probe.EqualTo(dst2) {
		t.Fatal("recomputed entry not served intact")
	}

	// A request entry that rots — one bit of its stored checksum or of
	// its check word — fails its check word on the next call, which
	// evicts it, counts it and recomputes the right checksum.
	rk := RequestKey{Kernel: "gaussian", ISA: "neon", Params: "g5x5,", Width: 64, Height: 32, Seed: 6}
	const want = 0x0123456789abcdef
	for i, flip := range []func(e *entry){
		func(e *entry) { e.resp ^= 1 << 40 },
		func(e *entry) { e.check ^= 1 << 3 },
	} {
		if _, _, err := c.DoSum(context.Background(), rk, func(context.Context) (uint64, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
		resident(t, c, slot{RequestKey: rk}, flip)
		recomputed = false
		got, out, err := c.DoSum(context.Background(), rk, func(context.Context) (uint64, error) {
			recomputed = true
			return want, nil
		})
		if err != nil || out != Miss || !recomputed || got != want {
			t.Fatalf("flip %d: recompute = (%#x, %v, %v), ran=%v; want (%#x, miss)", i, got, out, err, recomputed, uint64(want))
		}
		if v := reg.Counter("memo_corrupt_evictions_total").Value(); v != uint64(2+i) {
			t.Fatalf("flip %d: memo_corrupt_evictions_total = %d; want %d", i, v, 2+i)
		}
		if got, out, _ := c.DoSum(context.Background(), rk, nil); out != Hit || got != want {
			t.Fatalf("flip %d: recomputed entry = (%#x, %v); want (%#x, hit)", i, got, out, uint64(want))
		}
	}
}

// TestPlaneCheckCatchesEveryFlip: flipping any one bit of any element of
// a content entry's plane changes its check word, for every element kind,
// in the word-at-a-time body and in the tail alike (37 elements leave a
// tail for every kind).
func TestPlaneCheckCatchesEveryFlip(t *testing.T) {
	for _, kind := range []image.Type{image.U8, image.S16, image.F32} {
		m := image.NewMat(37, 1, kind)
		fillDst(m, 3)
		for i := range m.S16Pix {
			m.S16Pix[i] = int16(i * 977)
		}
		for i := range m.F32Pix {
			m.F32Pix[i] = float32(i) * 1.5
		}
		want := planeCheck(m)
		for i := 0; i < 37; i++ {
			for bit := 0; bit < 8*kind.Size(); bit++ {
				flip := func() {
					switch kind {
					case image.U8:
						m.U8Pix[i] ^= 1 << bit
					case image.S16:
						m.S16Pix[i] ^= 1 << bit
					case image.F32:
						m.F32Pix[i] = math.Float32frombits(math.Float32bits(m.F32Pix[i]) ^ 1<<bit)
					}
				}
				flip()
				if planeCheck(m) == want {
					t.Fatalf("%v element %d bit %d: check word unchanged", kind, i, bit)
				}
				flip()
			}
		}
		if planeCheck(m) != want {
			t.Fatalf("%v: check word not restored", kind)
		}
	}
}

// resident applies mutate to k's resident entry behind the cache's back.
func resident(t *testing.T, c *Cache, k slot, mutate func(e *entry)) {
	t.Helper()
	sh := c.shardFor(k.fold())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[k]
	if !ok {
		t.Fatalf("no resident entry for %+v", k)
	}
	mutate(el.Value.(*entry))
}

// TestInvalidateDuringComputeNotStored: a result computed before its
// (kernel, ISA) pair is invalidated — the quarantine verdict landed while
// compute ran — still answers its caller but is not cached, so the next
// call recomputes on the demoted path. Both entry kinds.
func TestInvalidateDuringComputeNotStored(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 24})
	ctx := context.Background()

	key := testKey(t, "gaussian", "neon", 7)
	dst := image.NewMat(64, 32, image.U8)
	out, err := c.Do(ctx, key, dst, func(context.Context) error {
		fillDst(dst, 3)
		c.Invalidate("gaussian", "neon")
		return nil
	})
	want := image.NewMat(64, 32, image.U8)
	fillDst(want, 3)
	if err != nil || out != Miss || !dst.EqualTo(want) {
		t.Fatalf("plane Do = (%v, %v), plane ok %v; want its own result", out, err, dst.EqualTo(want))
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("pre-invalidation plane was cached: %+v", st)
	}
	if out, _ := c.Do(ctx, key, dst, func(context.Context) error { return nil }); out != Miss {
		t.Fatalf("next plane Do = %v; want miss", out)
	}

	rk := RequestKey{Kernel: "gaussian", ISA: "neon", Params: "g5x5,", Width: 64, Height: 32, Seed: 7}
	sum, out, err := c.DoSum(ctx, rk, func(context.Context) (uint64, error) {
		c.Invalidate("gaussian", "neon")
		return 42, nil
	})
	if err != nil || out != Miss || sum != 42 {
		t.Fatalf("DoSum = (%d, %v, %v); want (42, miss)", sum, out, err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("pre-invalidation checksum was cached: %+v", st)
	}
	if _, out, _ := c.DoSum(ctx, rk, func(context.Context) (uint64, error) { return 42, nil }); out != Miss {
		t.Fatalf("next DoSum = %v; want miss", out)
	}

	// Invalidating another pair does not discard a flight's result.
	rk.Seed = 8
	c.DoSum(ctx, rk, func(context.Context) (uint64, error) {
		c.Invalidate("gaussian", "sse2")
		return 43, nil
	})
	if _, out, _ := c.DoSum(ctx, rk, nil); out != Hit {
		t.Fatalf("DoSum after an unrelated invalidation = %v; want hit", out)
	}
}

// TestRequestKeyEveryFieldDistinguishes: request keys that differ in
// exactly one field never share an entry, and a request key never shares
// one with a content key.
func TestRequestKeyEveryFieldDistinguishes(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 24})
	base := RequestKey{Kernel: "GaussianBlur", ISA: "neon", Params: "g5x5,", Width: 64, Height: 48, Seed: 1}
	variants := []RequestKey{base, base, base, base, base, base, base}
	variants[1].Kernel = "MedianBlur3x3"
	variants[2].ISA = "sse2"
	variants[3].Params = "g5x5,fuse"
	variants[4].Width = 65
	variants[5].Height = 49
	variants[6].Seed = 2
	for i, k := range variants {
		sum, out, err := c.DoSum(context.Background(), k, func(context.Context) (uint64, error) { return uint64(100 + i), nil })
		if err != nil || out != Miss || sum != uint64(100+i) {
			t.Fatalf("variant %d %+v = (%d, %v, %v); want its own miss", i, k, sum, out, err)
		}
	}
	for i, k := range variants {
		if sum, out, _ := c.DoSum(context.Background(), k, nil); out != Hit || sum != uint64(100+i) {
			t.Fatalf("variant %d = (%d, %v); want (%d, hit)", i, sum, out, 100+i)
		}
	}
	// A content key with the same kernel, ISA and a hash equal to the
	// request's fold is still a different entry.
	ck := Key{Kernel: base.Kernel, ISA: base.ISA, Hash: slot{RequestKey: base}.fold()}
	if c.Get(context.Background(), ck, image.NewMat(64, 48, image.U8)) {
		t.Fatal("content key served a request entry")
	}
	if st := c.Stats(); st.Entries != len(variants) {
		t.Fatalf("entries = %d; want %d", st.Entries, len(variants))
	}
}

// TestRespEntryChargeCoversHeap: the bytes a request entry is charged
// against MaxBytes are at least what inserting one costs the heap — the
// entry, its LRU element and its share of the map, including the tables
// the map grew out of — measured over 10^5 inserts with the collector off.
func TestRespEntryChargeCoversHeap(t *testing.T) {
	const n = 100_000
	c := New(Config{MaxBytes: 1 << 40, Shards: 8})
	keys := make([]slot, n)
	for i := range keys {
		keys[i] = slot{RequestKey: RequestKey{Kernel: "GaussianBlur", ISA: "neon", Params: "g5x5,", Width: 640, Height: 480, Seed: uint64(i)}}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range keys {
		c.store(newRespEntry(k, uint64(i)), 0)
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / n
	if st := c.Stats(); st.Entries != n || st.Bytes != n*respEntryBytes {
		t.Fatalf("stats = %+v; want %d entries of %d bytes", st, n, respEntryBytes)
	}
	t.Logf("heap growth %.0f B/entry, charge %d B/entry", perEntry, respEntryBytes)
	if perEntry > float64(respEntryBytes) {
		t.Fatalf("heap grows %.0f B per request entry; the charge is only %d", perEntry, respEntryBytes)
	}
}

// BenchmarkHostMemoSumHit measures a warm request-entry hit: key fold,
// shard lookup, check-word verify. CI holds it at 0 allocs/op.
func BenchmarkHostMemoSumHit(b *testing.B) {
	c := New(Config{MaxBytes: 32 << 20, Registry: obs.NewRegistry()})
	key := RequestKey{Kernel: "GaussianBlur", ISA: "neon", Params: "g5x5,", Width: 640, Height: 480, Seed: 1}
	ctx := context.Background()
	compute := func(context.Context) (uint64, error) { return 42, nil }
	if _, _, err := c.DoSum(ctx, key, compute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sum, out, err := c.DoSum(ctx, key, compute); err != nil || out != Hit || sum != 42 {
			b.Fatalf("DoSum = (%d, %v, %v); want (42, hit)", sum, out, err)
		}
	}
}

// TestInvalidate: quarantining (gaussian, neon) drops exactly its
// entries; the same kernel on another ISA and other kernels survive.
func TestInvalidate(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxBytes: 1 << 24, Registry: reg})
	insert := func(kernel, isa string, seed uint64) Key {
		k := testKey(t, kernel, isa, seed)
		dst := image.NewMat(64, 32, image.U8)
		if _, err := c.Do(context.Background(), k, dst, func(context.Context) error {
			fillDst(dst, uint8(seed))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return k
	}
	g1 := insert("gaussian", "neon", 41)
	g2 := insert("gaussian", "neon", 42)
	gs := insert("gaussian", "sse2", 41)
	cn := insert("canny", "neon", 41)

	if got := c.Invalidate("gaussian", "neon"); got != 2 {
		t.Fatalf("Invalidate removed %d entries; want 2", got)
	}
	probe := image.NewMat(64, 32, image.U8)
	if c.Get(context.Background(), g1, probe) || c.Get(context.Background(), g2, probe) {
		t.Fatal("invalidated entry still served")
	}
	if !c.Get(context.Background(), gs, probe) || !c.Get(context.Background(), cn, probe) {
		t.Fatal("invalidation removed unrelated entries")
	}
	if v := reg.Counter("memo_invalidations_total").Value(); v != 2 {
		t.Fatalf("memo_invalidations_total = %d; want 2", v)
	}
	if got := c.Invalidate("gaussian", "neon"); got != 0 {
		t.Fatalf("second Invalidate removed %d", got)
	}
}

// TestConcurrentShardedUse is the 8-goroutine -race test: hammer a small
// key space through Do and DoSum (with occasional Invalidate) and verify
// every served plane and checksum is correct for its key.
func TestConcurrentShardedUse(t *testing.T) {
	const (
		goroutines = 8
		iters      = 200
		keySpace   = 6
	)
	c := New(Config{MaxBytes: 4 * 64 * 32, Shards: 4}) // small budget: forces eviction churn
	keys := make([]Key, keySpace)
	for i := range keys {
		keys[i] = testKey(t, "gaussian", "neon", uint64(100+i))
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := image.NewMat(64, 32, image.U8)
			for i := 0; i < iters; i++ {
				ki := (g*31 + i) % keySpace
				key := keys[ki]
				out, err := c.Do(context.Background(), key, dst, func(context.Context) error {
					fillDst(dst, uint8(ki))
					return nil
				})
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if out == Bypass {
					t.Errorf("g%d i%d: unexpected bypass", g, i)
					return
				}
				// Whatever the path — hit, miss, coalesced — the plane
				// must be the one this key computes.
				want := image.NewMat(64, 32, image.U8)
				fillDst(want, uint8(ki))
				if !dst.EqualTo(want) {
					t.Errorf("g%d i%d: plane mismatch via %v", g, i, out)
					return
				}
				rk := RequestKey{Kernel: "gaussian", ISA: "neon", Params: "p=1", Width: 64, Height: 32, Seed: uint64(100 + ki)}
				sum, out, err := c.DoSum(context.Background(), rk, func(context.Context) (uint64, error) {
					return uint64(1000 + ki), nil
				})
				if err != nil || out == Bypass || sum != uint64(1000+ki) {
					t.Errorf("g%d i%d: DoSum = (%d, %v, %v); want %d", g, i, sum, out, err, 1000+ki)
					return
				}
				if i%50 == 25 && g == 0 {
					c.Invalidate("gaussian", "neon")
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses+st.Coalesced == 0 {
		t.Fatal("no traffic recorded")
	}
	if st.Bytes > c.cfg.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, c.cfg.MaxBytes)
	}
}

func TestStatsAndKernelsView(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 24})
	k := testKey(t, "gaussian", "neon", 61)
	dst := image.NewMat(64, 32, image.U8)
	if _, err := c.Do(context.Background(), k, dst, func(context.Context) error {
		fillDst(dst, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	kv := c.Kernels()
	v, ok := kv["gaussian/neon"]
	if !ok || v.Entries != 1 || v.Bytes != 64*32 {
		t.Fatalf("Kernels() = %+v", kv)
	}
	st := c.Stats()
	if st.Bytes != 64*32 || st.BudgetBytes != 1<<24 {
		t.Fatalf("Stats() = %+v", st)
	}
}
