package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
	"simdstudy/internal/memo"
	"simdstudy/internal/par"
)

// seedDirtyPlanes parks planes of every kind at the given sizes in the
// par recycler, each filled with 0xA5 bytes, so the requests that follow
// take recycled planes holding garbage instead of fresh zeroed ones.
func seedDirtyPlanes(sizes ...[2]int) {
	var held []*image.Mat
	for _, sz := range sizes {
		for _, kind := range []image.Type{image.U8, image.S16, image.F32} {
			for range 4 {
				m := par.GetMat(sz[0], sz[1], kind)
				for i := range m.U8Pix {
					m.U8Pix[i] = 0xA5
				}
				for i := range m.S16Pix {
					m.S16Pix[i] = int16(-0x5A5B) // 0xA5A5
				}
				for i := range m.F32Pix {
					m.F32Pix[i] = math.Float32frombits(0xA5A5A5A5)
				}
				held = append(held, m)
			}
		}
	}
	for _, m := range held {
		par.PutMat(m)
	}
}

// referenceChecksum is the response checksum of one request computed on
// freshly allocated planes, outside the server and its recycler.
func referenceChecksum(t *testing.T, kernel string, isa cv.ISA, w, h int, seed uint64) string {
	t.Helper()
	spec := kernels[kernel]
	res := image.Resolution{Width: w, Height: h}
	src := image.Synthetic(res, seed)
	if spec.srcKind == image.F32 {
		src = image.SyntheticF32(res, seed)
	}
	dw, dh := spec.dstDims(w, h)
	dst := image.NewMat(dw, dh, spec.dstKind)
	o := cv.NewOps(isa, nil)
	o.SetGuardPolicy(cv.DefaultGuardPolicy())
	if err := spec.run(context.Background(), o, src, dst); err != nil {
		t.Fatalf("reference %s: %v", kernel, err)
	}
	return strconv.FormatUint(checksum(dst), 16)
}

// recorded runs one request through h in process; ServeHTTP returns only
// after the handler's deferred plane returns have run.
func recorded(t *testing.T, h http.Handler, url string) (int, http.Header, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body.Bytes(), err)
	}
	return rec.Code, rec.Header(), body
}

// assertPlanesReturned fails unless every plane the recycler handed out
// has come back.
func assertPlanesReturned(t *testing.T, exit string) {
	t.Helper()
	if out := par.ReadPlaneStats().CheckedOut; out != 0 {
		t.Fatalf("%s: %d plane bytes still checked out", exit, out)
	}
}

// TestServeReturnsEveryPlane: every exit of a /process request — a 200
// compute, a memo miss, hit and coalesced answer, a 400 for degenerate
// geometry, an injected-panic 500 and a deadline shed — returns each plane
// it took to the par recycler. The recycler is pre-seeded with planes
// full of 0xA5, and the 200 responses must still equal checksums
// computed on fresh planes.
func TestServeReturnsEveryPlane(t *testing.T) {
	const w, h, seed = 96, 64, 5
	seedDirtyPlanes([2]int{w, h}, [2]int{w / 2, h / 2})
	assertPlanesReturned(t, "seeding")
	query := func(kernel string) string {
		return fmt.Sprintf("/process?kernel=%s&width=%d&height=%d&isa=neon&seed=%d", kernel, w, h, seed)
	}

	t.Run("compute", func(t *testing.T) {
		s := NewServer(Config{})
		defer s.Close()
		for _, k := range KernelNames() {
			code, _, body := recorded(t, s.Handler(), query(k))
			if code != http.StatusOK {
				t.Fatalf("%s: %d %v", k, code, body)
			}
			if want := referenceChecksum(t, k, cv.ISANEON, w, h, seed); body["checksum"] != want {
				t.Errorf("%s: checksum %v on recycled planes, %s on fresh ones", k, body["checksum"], want)
			}
			assertPlanesReturned(t, k+" 200")
		}
	})

	t.Run("memo", func(t *testing.T) {
		s := NewServer(Config{Memo: memo.Config{MaxBytes: 8 << 20}})
		defer s.Close()
		want := referenceChecksum(t, "gaussian", cv.ISANEON, w, h, seed)
		for _, outcome := range []string{"miss", "hit"} {
			code, hdr, body := recorded(t, s.Handler(), query("gaussian"))
			if code != http.StatusOK || hdr.Get("X-Memo") != outcome || body["checksum"] != want {
				t.Fatalf("%d X-Memo %q checksum %v; want 200 %s %s", code, hdr.Get("X-Memo"), body["checksum"], outcome, want)
			}
			assertPlanesReturned(t, "memo "+outcome)
		}

		gate := make(chan struct{})
		testProcessStart = func() { <-gate }
		defer func() { testProcessStart = nil }()
		outcomes := make([]string, 2)
		var wg sync.WaitGroup
		for i := range outcomes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, query("median"), nil))
				outcomes[i] = rec.Header().Get("X-Memo")
			}()
			waitFor(t, func() bool { _, n := s.Memo().InFlight(); return n > i })
		}
		close(gate)
		wg.Wait()
		if outcomes[0] != "miss" || outcomes[1] != "coalesced" {
			t.Fatalf("outcomes = %v; want [miss coalesced]", outcomes)
		}
		assertPlanesReturned(t, "memo coalesced")
	})

	t.Run("degenerate geometry", func(t *testing.T) {
		for _, cfg := range []Config{{}, {Memo: memo.Config{MaxBytes: 8 << 20}}} {
			s := NewServer(cfg)
			code, _, body := recorded(t, s.Handler(), "/process?kernel=resize&width=1&height=1")
			s.Close()
			if code != http.StatusBadRequest {
				t.Fatalf("memo %v: status %d %v, want 400", cfg.Memo.MaxBytes > 0, code, body)
			}
			if cfg.Memo.MaxBytes == 0 && body["error"] != "image: invalid dimensions 0x0" {
				t.Errorf("400 error = %v", body["error"])
			}
			assertPlanesReturned(t, "400")
		}
	})

	t.Run("panic", func(t *testing.T) {
		for _, cfg := range []Config{{}, {Memo: memo.Config{MaxBytes: 8 << 20}}} {
			s := NewServer(cfg)
			s.SetFaultInjector(panicInjector{})
			code, _, body := recorded(t, s.Handler(), query("gaussian"))
			s.Close()
			if code != http.StatusInternalServerError {
				t.Fatalf("status %d %v, want 500", code, body)
			}
			assertPlanesReturned(t, "500")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		testProcessStart = func() { time.Sleep(20 * time.Millisecond) }
		defer func() { testProcessStart = nil }()
		for _, cfg := range []Config{{}, {Memo: memo.Config{MaxBytes: 8 << 20}}} {
			s := NewServer(cfg)
			code, _, body := recorded(t, s.Handler(), query("canny")+"&deadline_ms=5")
			s.Close()
			if code != http.StatusTooManyRequests || body["reason"] != "deadline" {
				t.Fatalf("status %d %v, want 429 deadline", code, body)
			}
			assertPlanesReturned(t, "deadline shed")
		}
	})
}
