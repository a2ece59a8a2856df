package resilience

import (
	"context"
	"errors"
	"testing"
)

// TestDeadlineError: formatting and errors.Is through the wrap.
func TestDeadlineError(t *testing.T) {
	e := &DeadlineError{Op: "cv.GaussianBlur", Cause: context.DeadlineExceeded,
		Completed: 37, Total: 960, Unit: "rows"}
	if got := e.Error(); got != "resilience: cv.GaussianBlur: context deadline exceeded after 37/960 rows" {
		t.Errorf("Error() = %q", got)
	}
	if !errors.Is(e, context.DeadlineExceeded) {
		t.Error("errors.Is failed through DeadlineError")
	}
}
