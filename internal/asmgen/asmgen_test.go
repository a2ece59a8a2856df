package asmgen

import (
	"strings"
	"testing"

	"simdstudy/internal/cv"
	"simdstudy/internal/vectorizer"
)

func TestHandConvertListingNEON(t *testing.T) {
	s, err := HandConvertListing(cv.ISANEON)
	if err != nil {
		t.Fatal(err)
	}
	// Every instruction from the paper's NEON listing must appear.
	for _, want := range []string{"vld1.32", "vcvt.s32.f32", "vqmovn.s32", "vorr", "vst1.16",
		"vcombine_s16", "14 instructions / 8 pixels"} {
		if !strings.Contains(s, want) {
			t.Errorf("NEON listing missing %q:\n%s", want, s)
		}
	}
	// Exactly two loads, two converts, two narrows, one store.
	if strings.Count(s, "vld1.32") != 2 || strings.Count(s, "vqmovn.s32") != 2 {
		t.Error("instruction multiplicity wrong")
	}
}

func TestHandConvertListingSSE2(t *testing.T) {
	s, err := HandConvertListing(cv.ISASSE2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"movups", "cvtps2dq", "packssdw", "movdqu",
		"12 instructions / 8 pixels"} {
		if !strings.Contains(s, want) {
			t.Errorf("SSE2 listing missing %q:\n%s", want, s)
		}
	}
}

func TestAutoConvertListing(t *testing.T) {
	arm := AutoConvertListing(vectorizer.TargetNEON)
	for _, want := range []string{"bl <lrint>", "vcvt.f64.f32", "strh", "not vectorized",
		"call in loop body"} {
		if !strings.Contains(arm, want) && !strings.Contains(arm, "call") {
			t.Errorf("ARM auto listing missing %q:\n%s", want, arm)
		}
	}
	if !strings.Contains(arm, "lrint") {
		t.Error("ARM auto listing must show the libcall")
	}
	x86 := AutoConvertListing(vectorizer.TargetSSE2)
	if !strings.Contains(x86, "cvtsd2si") {
		t.Errorf("x86 auto listing missing cvtsd2si:\n%s", x86)
	}
}

func TestComparison(t *testing.T) {
	for _, isa := range []cv.ISA{cv.ISANEON, cv.ISASSE2} {
		s, err := Comparison(isa)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, "more instructions per pixel") {
			t.Errorf("%v comparison missing conclusion", isa)
		}
		if !strings.Contains(s, "Intrinsic Optimized") || !strings.Contains(s, "Auto-vectorized") {
			t.Errorf("%v comparison missing a side", isa)
		}
	}
}

// TestHandListingOrder pins the captured instruction sequence, in order:
// sequence capture records straight into the counter, bypassing the
// units' tallies, so the listing is the program order of the paper's loop.
func TestHandListingOrder(t *testing.T) {
	want := map[cv.ISA][]string{
		cv.ISANEON: {"vld1.32", "vcvt.s32.f32", "vqmovn.s32", "vld1.32", "vcvt.s32.f32", "vqmovn.s32", "vorr", "vst1.16"},
		cv.ISASSE2: {"movups", "cvtps2dq", "movups", "cvtps2dq", "packssdw", "movdqu"},
	}
	for isa, names := range want {
		s, err := HandConvertListing(isa)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(s, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[1] == ";" {
				got = append(got, f[0])
			}
		}
		if strings.Join(got, " ") != strings.Join(names, " ") {
			t.Errorf("%v listing order:\n got %v\nwant %v", isa, got, names)
		}
	}
}
