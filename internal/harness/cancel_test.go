package harness

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"simdstudy/internal/obs"
	"simdstudy/internal/platform"
	"simdstudy/internal/resilience"
)

// TestRunGridCtxCancelMidGrid cancels a grid after the third cell starts
// and asserts the resilience contract: a typed DeadlineError with
// cell-granular accounting, completed cells keeping their Metrics
// snapshots in the partial grid, and no leaked goroutines.
func TestRunGridCtxCancelMidGrid(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var starts atomic.Int32
	testCellStart = func() {
		if starts.Add(1) == 3 {
			cancel()
		}
	}
	defer func() { testCellStart = nil }()

	g, err := RunGridCtx(ctx, "BinThr", platform.Paper(), smallSizes,
		GridOptions{Obs: obs.NewRegistry()})

	var de *resilience.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *resilience.DeadlineError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("DeadlineError must unwrap to context.Canceled")
	}
	total := len(smallSizes) * len(platform.Paper())
	if de.Unit != "cells" || de.Total != total {
		t.Errorf("accounting = %d/%d %s, want total %d cells", de.Completed, de.Total, de.Unit, total)
	}
	if de.Completed <= 0 || de.Completed >= total {
		t.Errorf("Completed = %d, want mid-grid (0 < n < %d)", de.Completed, total)
	}

	// The partial grid must be returned, with exactly the completed cells
	// carrying their per-cell Metrics snapshots.
	if g == nil {
		t.Fatal("cancellation must return the partial grid")
	}
	withMetrics := 0
	for _, row := range g.Cells {
		for _, c := range row {
			if c.Metrics != nil {
				withMetrics++
			}
		}
	}
	if withMetrics != de.Completed {
		t.Errorf("%d cells carry Metrics, DeadlineError reports %d completed", withMetrics, de.Completed)
	}

	// No goroutines may outlive the call.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before grid, %d after", before, after)
	}
}
