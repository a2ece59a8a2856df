package integrity

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdstudy/internal/obs"
)

func TestAuditorRateZeroNeverSamples(t *testing.T) {
	a := NewAuditor(AuditConfig{Rate: 0})
	for i := 0; i < 1000; i++ {
		if a.Sample() {
			t.Fatal("rate 0 sampled")
		}
	}
	if a.Sampled() != 0 || a.Skipped() != 0 {
		t.Fatalf("disabled sampler counted: sampled=%d skipped=%d", a.Sampled(), a.Skipped())
	}
}

func TestAuditorRateOneAlwaysSamples(t *testing.T) {
	a := NewAuditor(AuditConfig{Rate: 1})
	for i := 0; i < 1000; i++ {
		if !a.Sample() {
			t.Fatal("rate 1 skipped")
		}
	}
	if a.Sampled() != 1000 {
		t.Fatalf("sampled = %d", a.Sampled())
	}
}

func TestAuditorDeterministicAndProportional(t *testing.T) {
	draw := func(seed uint64) []bool {
		a := NewAuditor(AuditConfig{Rate: 0.25, Seed: seed})
		out := make([]bool, 10000)
		for i := range out {
			out[i] = a.Sample()
		}
		return out
	}
	d1, d2 := draw(42), draw(42)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("draw %d differs across identical seeds", i)
		}
	}
	n := 0
	for _, v := range d1 {
		if v {
			n++
		}
	}
	// 10000 draws at p=0.25: mean 2500, sigma ~43. A 5-sigma band.
	if n < 2284 || n > 2716 {
		t.Fatalf("sampled %d of 10000 at rate 0.25, outside 5-sigma band", n)
	}
	d3 := draw(43)
	same := 0
	for i := range d1 {
		if d1[i] == d3[i] {
			same++
		}
	}
	if same == len(d1) {
		t.Fatal("different seeds drew identical streams")
	}
}

func TestAuditorLoadFactor(t *testing.T) {
	a := NewAuditor(AuditConfig{Rate: 0.5, Seed: 7})
	if got := a.EffectiveRate(); got != 0.5 {
		t.Fatalf("effective rate = %v", got)
	}
	a.SetLoadFactor(0.5)
	if got := a.EffectiveRate(); got != 0.25 {
		t.Fatalf("effective rate after factor 0.5 = %v", got)
	}
	a.SetLoadFactor(0)
	for i := 0; i < 100; i++ {
		if a.Sample() {
			t.Fatal("fully shed auditor sampled")
		}
	}
	a.SetLoadFactor(math.NaN())
	if got := a.EffectiveRate(); got != 0 {
		t.Fatalf("NaN load factor produced rate %v", got)
	}
	a.SetLoadFactor(5)
	if got := a.EffectiveRate(); got != 0.5 {
		t.Fatalf("load factor clamped high gave %v", got)
	}
}

func TestAuditorResumeRoundTrip(t *testing.T) {
	a := NewAuditor(AuditConfig{Rate: 0.5, Seed: 99})
	var prefix []bool
	for i := 0; i < 100; i++ {
		prefix = append(prefix, a.Sample())
	}
	snap := a.Resume()
	var tail []bool
	for i := 0; i < 100; i++ {
		tail = append(tail, a.Sample())
	}

	b := NewAuditor(AuditConfig{Rate: 0.5, Seed: 99})
	b.SetResume(snap)
	for i := 0; i < 100; i++ {
		if b.Sample() != tail[i] {
			t.Fatalf("resumed draw %d diverges", i)
		}
	}
	if b.Sampled() != a.Sampled() || b.Skipped() != a.Skipped() {
		t.Fatalf("resumed tallies diverge: %d/%d vs %d/%d",
			b.Sampled(), b.Skipped(), a.Sampled(), a.Skipped())
	}
	_ = prefix
}

func TestObserveMetricsAndScoreboardFeed(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAuditor(AuditConfig{Rate: 1})
	sb := NewScoreboard(ScoreboardConfig{}, reg)
	a.SetScoreboard(sb)

	a.Observe(reg, "GaussianBlur", "neon", time.Millisecond, "abc123", nil)
	ce := &CorruptionError{Kernel: "GaussianBlur", ISA: "neon",
		Region: Region{Row0: 0, Row1: 64, Width: 64}, FirstDiff: 17, Diffs: 3}
	a.Observe(reg, "GaussianBlur", "neon", time.Millisecond, "", ce)

	if a.Mismatches() != 1 {
		t.Fatalf("mismatches = %d", a.Mismatches())
	}
	if got := score(sb, "GaussianBlur", "neon"); got != 0.25*1.0 {
		t.Fatalf("score = %v, want 0.25 (one clean then one mismatch at decay 0.25)", got)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write prometheus: %v", err)
	}
	dump := buf.String()
	for _, want := range []string{
		`audit_total{isa="neon",kernel="GaussianBlur",outcome="clean"} 1`,
		`audit_total{isa="neon",kernel="GaussianBlur",outcome="mismatch"} 1`,
		`corruption_detected_total{isa="neon",kernel="GaussianBlur"} 1`,
	} {
		if !containsLine(dump, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, dump)
		}
	}
}

func containsLine(dump, want string) bool {
	for len(dump) > 0 {
		i := 0
		for i < len(dump) && dump[i] != '\n' {
			i++
		}
		if dump[:i] == want {
			return true
		}
		if i == len(dump) {
			break
		}
		dump = dump[i+1:]
	}
	return false
}

func TestScoreboardTripLatchAndSiblingIsolation(t *testing.T) {
	sb := NewScoreboard(ScoreboardConfig{}, nil)
	var trips []string
	record := func(k, isa string, mismatch bool) {
		if _, tripped := sb.Record(k, isa, mismatch); tripped {
			trips = append(trips, k+"/"+isa)
		}
	}

	// Interleave a healthy sibling with the corrupting pair.
	for i := 0; i < 12; i++ {
		record("Threshold", "sse2", false)
		record("Threshold", "neon", true)
	}
	if len(trips) == 0 {
		t.Fatal("mismatch burst never tripped")
	}
	// Defaults: decay 0.25, threshold 0.5, min samples 8. Pure mismatches
	// reach 1-(0.75)^n: n=3 gives 0.578 but the sample floor holds the trip
	// until audit 8.
	if !tripped(sb, "Threshold", "neon") {
		t.Fatal("tripped pair not latched")
	}
	if tripped(sb, "Threshold", "sse2") {
		t.Fatal("clean sibling tripped")
	}
	if len(trips) != 1 || trips[0] != "Threshold/neon" {
		t.Fatalf("trips = %v, want exactly [Threshold/neon]", trips)
	}
	// Further mismatches never report the latched trip again.
	record("Threshold", "neon", true)
	if len(trips) != 1 {
		t.Fatalf("latched pair tripped again: %v", trips)
	}

	snap := sb.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d pairs", len(snap))
	}
	if snap[0].ISA != "neon" || !snap[0].Tripped || snap[0].Mismatches != 13 {
		t.Fatalf("snapshot[0] = %+v", snap[0])
	}
	if snap[1].ISA != "sse2" || snap[1].Tripped || snap[1].Score != 0 {
		t.Fatalf("snapshot[1] = %+v", snap[1])
	}
}

func TestScoreboardMinSamplesHoldsEarlyTrip(t *testing.T) {
	sb := NewScoreboard(ScoreboardConfig{MinSamples: 8}, nil)
	for i := 0; i < 7; i++ {
		if _, tripped := sb.Record("Canny", "neon", true); tripped {
			t.Fatalf("tripped at audit %d, below MinSamples", i+1)
		}
	}
	if _, tripped := sb.Record("Canny", "neon", true); !tripped {
		t.Fatal("audit 8 of a pure mismatch burst should trip")
	}
}

func TestScoreboardRecoveryBelowThreshold(t *testing.T) {
	sb := NewScoreboard(ScoreboardConfig{}, nil)
	// A short mismatch run followed by sustained clean audits decays the
	// score back toward zero without ever tripping.
	for i := 0; i < 3; i++ {
		sb.Record("SobelFilter", "sse2", true)
	}
	for i := 0; i < 40; i++ {
		sb.Record("SobelFilter", "sse2", false)
	}
	if tripped(sb, "SobelFilter", "sse2") {
		t.Fatal("transient burst below MinSamples tripped")
	}
	if s := score(sb, "SobelFilter", "sse2"); s > 0.001 {
		t.Fatalf("score did not decay: %v", s)
	}
}

func TestScoreboardConcurrentRecord(t *testing.T) {
	sb := NewScoreboard(ScoreboardConfig{MinSamples: -1}, nil)
	var trips sync.Map // "kernel/isa" -> *atomic.Int32

	pairs := []struct{ k, isa string }{
		{"Threshold", "neon"}, {"Threshold", "sse2"},
		{"GaussianBlur", "neon"}, {"GaussianBlur", "sse2"},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := pairs[g%len(pairs)]
			for i := 0; i < 1000; i++ {
				if _, tripped := sb.Record(p.k, p.isa, g == 0 && i%2 == 0); tripped {
					n, _ := trips.LoadOrStore(p.k+"/"+p.isa, new(atomic.Int32))
					n.(*atomic.Int32).Add(1)
				}
				score(sb, p.k, p.isa)
				if i%100 == 0 {
					sb.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := sb.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d pairs, want 4", len(snap))
	}
	var total uint64
	for _, p := range snap {
		total += p.Audits
	}
	if total != 8000 {
		t.Fatalf("audits = %d, want 8000", total)
	}
	trips.Range(func(k, n any) bool {
		if got := n.(*atomic.Int32).Load(); got != 1 {
			t.Errorf("%v tripped %d times, want at most once", k, got)
		}
		return true
	})
}

// tripped reports whether the pair has latched its trip.
func tripped(b *Scoreboard, kernel, isa string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.cells[kernel+"/"+isa]
	return c != nil && c.tripped
}

// score is the pair's current decayed mismatch rate (0 for a pair never
// audited).
func score(b *Scoreboard, kernel, isa string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.cells[kernel+"/"+isa]; c != nil {
		return c.score
	}
	return 0
}
