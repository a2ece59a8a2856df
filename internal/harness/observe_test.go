package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"simdstudy/internal/cv"
	"simdstudy/internal/obs"
	"simdstudy/internal/platform"
)

// TestGridObservability runs a full grid against one shared registry:
// every cell must land a span on its own track, carry a private metrics
// snapshot, and the merged registry must account for every attempt.
func TestGridObservability(t *testing.T) {
	reg := obs.NewRegistry()
	plats := platform.Paper()
	g, err := RunGridCtx(context.Background(), "BinThr", plats, smallSizes,
		GridOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(plats) * len(smallSizes)

	tracks := map[int]bool{}
	cellSpans := 0
	for _, sr := range reg.Spans() {
		if strings.HasPrefix(sr.Name, "cell.") {
			cellSpans++
			if tracks[sr.Track] {
				t.Errorf("track %d reused across cell spans", sr.Track)
			}
			tracks[sr.Track] = true
			if sr.Attrs["hand_seconds"] == nil {
				t.Errorf("cell span %v missing hand_seconds attr", sr.Attrs)
			}
			if sr.Cycles <= 0 {
				t.Errorf("cell span has no modeled cycles")
			}
		}
	}
	if cellSpans != cells {
		t.Errorf("cell spans = %d, want %d", cellSpans, cells)
	}

	snap := reg.Snapshot()
	var attempts float64
	for series, v := range snap {
		if strings.HasPrefix(series, "grid_cell_attempts_total") {
			attempts += v
		}
	}
	if attempts != float64(cells) {
		t.Errorf("merged attempts = %v, want %d", attempts, cells)
	}

	for si := range g.Cells {
		for pi := range g.Cells[si] {
			m := g.Cells[si][pi].Metrics
			if m == nil {
				t.Fatalf("cell [%d][%d] has no metrics snapshot", si, pi)
			}
			var n float64
			for series, v := range m {
				if strings.HasPrefix(series, "grid_cell_attempts_total") {
					n += v
				}
			}
			if n != 1 {
				t.Errorf("cell [%d][%d] attempts = %v, want 1", si, pi, n)
			}
		}
	}

	// Without a registry the grid must stay metric-free.
	g2, err := RunGridCtx(context.Background(), "BinThr", plats[:1], smallSizes, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Cells[0][0].Metrics != nil {
		t.Error("registry-less grid produced a metrics snapshot")
	}
}

// TestFaultCampaignObservability checks the acceptance-criterion span
// nesting (campaign -> isa -> image cell -> kernel -> guard action) and the
// fault counter families.
func TestFaultCampaignObservability(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, CampaignConfig{
		Rate:   1e-4,
		Seed:   7,
		Policy: cv.GuardPolicy{SampleRows: 64, MaxRetries: 0, KillAfter: -1},
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	byID := map[int]obs.SpanRecord{}
	byName := map[string]int{}
	for _, sr := range reg.Spans() {
		byID[sr.ID] = sr
		byName[sr.Name]++
	}
	for _, want := range []string{"campaign.GauBlu", "campaign.isa", "cell.GauBlu", "kernel.GaussianBlur", "guard.referee"} {
		if byName[want] == 0 {
			t.Errorf("no %q span recorded (have %v)", want, byName)
		}
	}
	// Walk one guard span up: guard -> kernel -> cell -> isa -> campaign.
	for _, sr := range reg.Spans() {
		if sr.Name != "guard.referee" {
			continue
		}
		chain := []string{}
		for cur := sr; ; cur = byID[cur.Parent] {
			chain = append(chain, cur.Name)
			if cur.Parent == 0 {
				break
			}
		}
		want := []string{"guard.referee", "kernel.GaussianBlur", "cell.GauBlu", "campaign.isa", "campaign.GauBlu"}
		if len(chain) != len(want) {
			t.Fatalf("guard span chain = %v, want %v", chain, want)
		}
		for i := range want {
			if chain[i] != want[i] {
				t.Fatalf("guard span chain = %v, want %v", chain, want)
			}
		}
		break
	}

	snap := reg.Snapshot()
	var injected, classified float64
	for series, v := range snap {
		if strings.HasPrefix(series, "fault_injected_total") {
			injected += v
		}
		if strings.HasPrefix(series, "fault_classified_total") {
			classified += v
		}
	}
	var wantInjected uint64
	for _, ir := range rep.PerISA {
		wantInjected += ir.Injected
	}
	if injected != float64(wantInjected) {
		t.Errorf("fault_injected_total = %v, want %d", injected, wantInjected)
	}
	if classified == 0 {
		t.Error("fault_classified_total is empty")
	}
	if v := snap[`fault_classified_total{isa="neon",outcome="detected"}`]; v != float64(rep.PerISA[0].Detected) {
		t.Errorf("neon detected counter = %v, want %d", v, rep.PerISA[0].Detected)
	}

	// The three acceptance-criterion families must render with non-zero
	// samples in the Prometheus exposition.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, fam := range []string{"simd_instructions_total{", "guard_actions_total{", "fault_classified_total{"} {
		if !strings.Contains(out, fam) {
			t.Errorf("prometheus output missing family %q", fam)
		}
	}
}
