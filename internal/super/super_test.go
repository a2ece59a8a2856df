package super

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"simdstudy/internal/checkpoint"
	"simdstudy/internal/obs"
	"simdstudy/internal/resilience"
)

// latchPanics mirrors the cv call frame: a panic that RecordPanic names
// for quarantine latches the pair's breaker stuck-open for panic.
func latchPanics(s *Supervisor, brk *resilience.BreakerSet, kernel, isa string, value any) bool {
	newly := s.RecordPanic(kernel, isa, value)
	if newly {
		brk.Quarantine(kernel, isa, resilience.ReasonPanic)
	}
	return newly
}

func TestSupervisorQuarantine(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSupervisor(QuarantinePolicy{MaxPanics: 3}, reg)
	brk := resilience.NewBreakerSet(resilience.BreakerConfig{}, reg)
	quarantined := func(kernel, isa string) bool {
		return brk.State(kernel, isa) == resilience.StateStuckOpen
	}

	for i := 1; i <= 2; i++ {
		if latchPanics(s, brk, "Canny", "neon", "bad") {
			t.Fatalf("panic %d should not quarantine", i)
		}
		if quarantined("Canny", "neon") {
			t.Fatalf("quarantined after %d panics", i)
		}
	}
	if !latchPanics(s, brk, "Canny", "neon", "bad") {
		t.Fatal("third panic must newly quarantine")
	}
	if !quarantined("Canny", "neon") {
		t.Fatal("pair not quarantined")
	}
	// Only the quarantining record returns true.
	if latchPanics(s, brk, "Canny", "neon", "bad") {
		t.Fatal("already-quarantined pair must not report newly")
	}
	if n := s.panics[key("Canny", "neon")]; n != 4 {
		t.Fatalf("panic count = %d, want 4", n)
	}
	// Other pairs are unaffected.
	if quarantined("Canny", "sse2") || quarantined("SobelFilter", "neon") {
		t.Fatal("quarantine leaked to other pairs")
	}

	snap := reg.Snapshot()
	if got := snap[`quarantine_total{isa="neon",kernel="Canny"}`]; got != 1 {
		t.Errorf("quarantine_total = %v, want 1", got)
	}
	if got := snap[`worker_panics_total{isa="neon",kernel="Canny"}`]; got != 4 {
		t.Errorf("worker_panics_total = %v, want 4", got)
	}
	if got := snap[`breaker_state{isa="neon",kernel="Canny"}`]; got != float64(resilience.StateStuckOpen) {
		t.Errorf("breaker_state gauge = %v, want %d (stuck-open)", got, resilience.StateStuckOpen)
	}

	qs := brk.Quarantines()
	if len(qs) != 1 || qs[0].Kernel != "Canny" || qs[0].ISA != "neon" || qs[0].Reason != resilience.ReasonPanic {
		t.Errorf("Quarantines = %+v", qs)
	}
}

func TestQuarantineJournalPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.journal")
	j, err := checkpoint.Create(path, "quarantine", "fp")
	if err != nil {
		t.Fatal(err)
	}

	s := NewSupervisor(QuarantinePolicy{MaxPanics: 1}, nil)
	s.SetClock(func() time.Time { return time.Unix(100, 0) })
	if _, err := s.AttachJournal(j); err != nil {
		t.Fatalf("AttachJournal(empty) = %v", err)
	}
	if !s.RecordPanic("MedianBlur3x3", "sse2", "index out of range") {
		t.Fatal("MaxPanics=1 must quarantine on first panic")
	}

	// A "restarted process": fresh supervisor, reopened journal.
	j2, err := checkpoint.Open(path, "quarantine", "fp")
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	s2 := NewSupervisor(QuarantinePolicy{}, nil)
	replayed, err := s2.AttachJournal(j2)
	if err != nil {
		t.Fatalf("AttachJournal(replay) = %v", err)
	}
	if len(replayed) != 1 {
		t.Fatalf("replayed %d records, want 1", len(replayed))
	}
	qr := replayed[0]
	if qr.Kernel != "MedianBlur3x3" || qr.ISA != "sse2" || qr.Panics != 1 ||
		qr.UnixNano != time.Unix(100, 0).UnixNano() {
		t.Errorf("replayed record = %+v", qr)
	}
	if !strings.Contains(qr.Reason, "index out of range") {
		t.Errorf("Reason = %q", qr.Reason)
	}
	// The restarted process latches the replayed pair, and the replayed
	// count keeps a later panic from naming it (and journaling it) again.
	brk := resilience.NewBreakerSet(resilience.BreakerConfig{}, nil)
	for _, qr := range replayed {
		brk.Quarantine(qr.Kernel, qr.ISA, resilience.ReasonPanic)
	}
	if st := brk.State("MedianBlur3x3", "sse2"); st != resilience.StateStuckOpen {
		t.Fatalf("restarted process lost the quarantine: %v", st)
	}
	for i := 0; i < 4; i++ {
		if s2.RecordPanic("MedianBlur3x3", "sse2", "again") {
			t.Fatalf("replayed pair named for quarantine again at panic %d", i+1)
		}
	}
	if j2.Len() != 1 {
		t.Fatalf("journal holds %d records, want 1", j2.Len())
	}
}

func TestWatchdogDetectsStall(t *testing.T) {
	reg := obs.NewRegistry()
	w := NewWatchdog(WatchdogConfig{Deadline: time.Hour}, reg)
	defer w.Stop()

	stopped := false
	sec := w.Section("GaussianBlur", "neon", 3, func() { stopped = true })
	defer sec.Close()

	// All hearts fresh: no stall.
	w.Check(time.Now())
	if sec.Stalled() != nil || stopped {
		t.Fatal("fresh section declared stalled")
	}

	// Bands 0 and 2 keep beating; band 1 goes silent past the deadline.
	future := time.Now().Add(2 * time.Hour)
	sec.Heart(0).last.Store(future.UnixNano())
	sec.Heart(2).last.Store(future.UnixNano())
	w.Check(future)
	se := sec.Stalled()
	if se == nil {
		t.Fatal("stall not detected")
	}
	if !stopped {
		t.Fatal("onStall not fired")
	}
	if se.Band != 1 || se.Op != "GaussianBlur" || se.ISA != "neon" || se.Deadline != time.Hour {
		t.Errorf("StallError = %+v", se)
	}
	if w.Stalls() != 1 {
		t.Errorf("Stalls = %d, want 1", w.Stalls())
	}

	// A second scan must not re-declare.
	w.Check(future.Add(time.Hour))
	if w.Stalls() != 1 {
		t.Errorf("stall re-declared; Stalls = %d", w.Stalls())
	}

	snap := reg.Snapshot()
	if got := snap[`stall_total{isa="neon",kernel="GaussianBlur"}`]; got != 1 {
		t.Errorf("stall_total = %v, want 1", got)
	}
}

func TestWatchdogBeatsPreventStall(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Deadline: 50 * time.Millisecond}, nil)
	defer w.Stop()
	sec := w.Section("ResizeHalf", "sse2", 1, nil)
	defer sec.Close()
	// Keep beating for several deadlines; the live monitor must stay quiet.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		sec.Heart(0).Beat()
		time.Sleep(5 * time.Millisecond)
	}
	if se := sec.Stalled(); se != nil {
		t.Fatalf("beating section declared stalled: %v", se)
	}
}

func TestWatchdogClosedSectionNotScanned(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Deadline: time.Hour}, nil)
	defer w.Stop()
	sec := w.Section("Threshold", "neon", 1, nil)
	sec.Close()
	w.Check(time.Now().Add(48 * time.Hour))
	if sec.Stalled() != nil {
		t.Fatal("closed section declared stalled")
	}
	if w.Stalls() != 0 {
		t.Errorf("Stalls = %d, want 0", w.Stalls())
	}
}

func TestWatchdogSnapshot(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Deadline: time.Hour}, nil)
	defer w.Stop()
	s1 := w.Section("Canny", "neon", 2, nil)
	defer s1.Close()
	s2 := w.Section("Canny", "sse2", 4, nil)
	defer s2.Close()
	st := w.Snapshot(time.Now())
	if len(st) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(st))
	}
	if st[0].ISA != "neon" || st[1].ISA != "sse2" {
		t.Errorf("Snapshot order = %s, %s", st[0].ISA, st[1].ISA)
	}
	if st[0].Bands != 2 || st[1].Bands != 4 {
		t.Errorf("Bands = %d, %d", st[0].Bands, st[1].Bands)
	}
}

func TestWatchdogConfigDefaults(t *testing.T) {
	c := WatchdogConfig{}.normalized()
	if c.Deadline != time.Second {
		t.Errorf("default Deadline = %v", c.Deadline)
	}
	if c.poll() != c.Deadline/8 {
		t.Errorf("default poll = %v", c.poll())
	}
	if p := (WatchdogConfig{Deadline: time.Microsecond}).normalized().poll(); p != time.Millisecond {
		t.Errorf("poll floor = %v, want 1ms", p)
	}
	if p := (WatchdogConfig{Deadline: time.Hour}).normalized().poll(); p != 250*time.Millisecond {
		t.Errorf("poll ceiling = %v, want 250ms", p)
	}
	if q := (QuarantinePolicy{}).normalized(); q.MaxPanics != 3 {
		t.Errorf("default MaxPanics = %d", q.MaxPanics)
	}
}
