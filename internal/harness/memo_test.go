package harness

import (
	"context"
	"strings"
	"testing"

	"simdstudy/internal/image"
	"simdstudy/internal/memo"
)

// TestCampaignMemoWarmColdIdentity: a clean campaign run against a cold
// cache computes and stores every image; the identical rerun is served
// entirely from the cache and produces bit-identical outputs — same
// chained OutputSum per ISA.
func TestCampaignMemoWarmColdIdentity(t *testing.T) {
	cache := memo.New(memo.Config{MaxBytes: 64 << 20})
	cfg := CampaignConfig{Burst: 3, Memo: cache}
	res := image.Resolution{Width: 160, Height: 120, Name: "160x120"}

	cold, err := RunFaultCampaign(context.Background(), "GauBlu", res, cfg)
	if err != nil {
		t.Fatalf("cold campaign: %v", err)
	}
	warm, err := RunFaultCampaign(context.Background(), "GauBlu", res, cfg)
	if err != nil {
		t.Fatalf("warm campaign: %v", err)
	}
	for i, ir := range cold.PerISA {
		if ir.MemoMisses != 3 || ir.MemoHits != 0 {
			t.Errorf("cold %v: hits=%d misses=%d; want 0/3", ir.ISA, ir.MemoHits, ir.MemoMisses)
		}
		wr := warm.PerISA[i]
		if wr.MemoHits != 3 || wr.MemoMisses != 0 {
			t.Errorf("warm %v: hits=%d misses=%d; want 3/0", wr.ISA, wr.MemoHits, wr.MemoMisses)
		}
		if ir.OutputSum == 0 || ir.OutputSum != wr.OutputSum {
			t.Errorf("%v: warm output sum %016x != cold %016x", ir.ISA, wr.OutputSum, ir.OutputSum)
		}
	}

	var sb strings.Builder
	warm.Render(&sb)
	if !strings.Contains(sb.String(), "memo[neon]: 3 hits, 0 misses") {
		t.Errorf("render missing memo line:\n%s", sb.String())
	}
}

// TestCampaignMemoExclusions: memoization refuses to combine with fault
// injection or checkpointed resume, both of which assume every image is
// actually executed.
func TestCampaignMemoExclusions(t *testing.T) {
	cache := memo.New(memo.Config{MaxBytes: 1 << 20})
	res := image.Resolution{Width: 64, Height: 48, Name: "64x48"}

	_, err := RunFaultCampaign(context.Background(), "BinThr", res,
		CampaignConfig{Memo: cache, Rate: 0.5})
	if err == nil || !strings.Contains(err.Error(), "fault injection") {
		t.Errorf("memo+injection error = %v; want fault-injection rejection", err)
	}
	_, err = RunFaultCampaign(context.Background(), "BinThr", res,
		CampaignConfig{Memo: cache, CheckpointPath: t.TempDir() + "/j.ckpt"})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("memo+checkpoint error = %v; want checkpoint rejection", err)
	}
}

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestRunMemoBenchSpeedupFloor pins the acceptance bar: at 5 Mpx a
// verified cache hit must be at least 5x faster than recomputing the
// kernel, and byte-identical to it. Under the race detector the ratio
// measures instrumentation — the hit is an instrumented checksum pass
// over the whole plane, while the compute runs on lane twins the detector
// barely touches — so there only the identity is asserted.
func TestRunMemoBenchSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("5 Mpx timing run")
	}
	r, err := RunMemoBench("ConvertFloatShort", image.Res5MP)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Fatal("cache hit served a plane that differs from direct computation")
	}
	if !raceEnabled && r.Speedup < 5 {
		t.Errorf("hit speedup %.1fx (cold %.2fms, hit %.2fms); want >= 5x",
			r.Speedup, r.ColdSeconds*1e3, r.HitSeconds*1e3)
	}
}

// TestRunMemoBenchSmall keeps the helper itself covered in -short runs.
func TestRunMemoBenchSmall(t *testing.T) {
	r, err := RunMemoBench("BinThr", image.Resolution{Width: 128, Height: 96, Name: "128x96"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Error("hit plane differs from computed plane")
	}
	if r.ColdSeconds <= 0 || r.HitSeconds <= 0 {
		t.Errorf("non-positive timings: cold %v hit %v", r.ColdSeconds, r.HitSeconds)
	}
	if _, err := RunMemoBench("NoSuchBench", image.Res03MP); err == nil {
		t.Error("unknown bench accepted")
	}
}
