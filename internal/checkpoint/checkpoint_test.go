package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.journal")
}

func TestRoundTrip(t *testing.T) {
	path := tempJournal(t)
	j, err := Create(path, "grid", "fp-1")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	want := []payload{{"a", 1}, {"b", 2}, {"c", 3}}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatalf("Append(%v): %v", p, err)
		}
	}
	if j.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", j.Len(), len(want))
	}

	// Reopen from disk and replay.
	j2, err := Open(path, "grid", "fp-1")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := j2.Records()
	if len(recs) != len(want) {
		t.Fatalf("reopened Len = %d, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Seq != i {
			t.Errorf("record %d: Seq = %d", i, rec.Seq)
		}
		var p payload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			t.Fatalf("record %d: unmarshal: %v", i, err)
		}
		if p != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, p, want[i])
		}
	}
	if m := j2.meta; m.Kind != "grid" || m.Fingerprint != "fp-1" || m.Version != Version {
		t.Errorf("Meta = %+v", m)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	path := tempJournal(t)
	j, err := Create(path, "campaign", "fp")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := j.Append(payload{"a", 1}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	j2, err := Open(path, "campaign", "fp")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j2.Append(payload{"b", 2}); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	j3, err := Open(path, "campaign", "fp")
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	if j3.Len() != 2 {
		t.Fatalf("Len after reopen+append = %d, want 2", j3.Len())
	}
}

func TestOpenMissing(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "nope.journal"), "grid", "fp")
	if !os.IsNotExist(err) {
		t.Fatalf("Open(missing) = %v, want os.IsNotExist", err)
	}
}

func TestMismatch(t *testing.T) {
	path := tempJournal(t)
	if _, err := Create(path, "grid", "fp-1"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	var me *MismatchError
	if _, err := Open(path, "campaign", "fp-1"); !errors.As(err, &me) || me.Field != "kind" {
		t.Fatalf("Open(wrong kind) = %v, want *MismatchError{Field: kind}", err)
	}
	if _, err := Open(path, "grid", "fp-2"); !errors.As(err, &me) || me.Field != "fingerprint" {
		t.Fatalf("Open(wrong fp) = %v, want *MismatchError{Field: fingerprint}", err)
	}
	// Mismatch is a hard error for OpenOrCreate too: never clobber a
	// different run's journal.
	if _, _, _, err := OpenOrCreate(path, "grid", "fp-2"); !errors.As(err, &me) {
		t.Fatalf("OpenOrCreate(wrong fp) = %v, want *MismatchError", err)
	}
	if _, err := Open(path, "grid", "fp-1"); err != nil {
		t.Fatalf("journal should be untouched after mismatch: %v", err)
	}
}

func TestOpenOrCreatePolicy(t *testing.T) {
	path := tempJournal(t)

	// Missing: cold start, no warning.
	j, resumed, warn, err := OpenOrCreate(path, "grid", "fp")
	if err != nil || resumed || warn != nil {
		t.Fatalf("cold OpenOrCreate = (%v, %v, %v)", resumed, warn, err)
	}
	if err := j.Append(payload{"a", 1}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// Existing and matching: resume.
	j, resumed, warn, err = OpenOrCreate(path, "grid", "fp")
	if err != nil || !resumed || warn != nil {
		t.Fatalf("resume OpenOrCreate = (%v, %v, %v)", resumed, warn, err)
	}
	if j.Len() != 1 {
		t.Fatalf("resumed Len = %d, want 1", j.Len())
	}

	// Corrupt: recreate cold, surface the decode failure as warn.
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, resumed, warn, err = OpenOrCreate(path, "grid", "fp")
	if err != nil || resumed {
		t.Fatalf("corrupt OpenOrCreate = (%v, %v)", resumed, err)
	}
	var ce *CorruptJournalError
	if !errors.As(warn, &ce) {
		t.Fatalf("warn = %v, want *CorruptJournalError", warn)
	}
	if j.Len() != 0 {
		t.Fatalf("recreated Len = %d, want 0", j.Len())
	}
	if _, err := Open(path, "grid", "fp"); err != nil {
		t.Fatalf("recreated journal should be valid: %v", err)
	}
}

// corruptions enumerates the damage classes the decoder must reject with a
// typed error.
func corruptions(t *testing.T, valid []byte) map[string][]byte {
	t.Helper()
	lines := strings.SplitAfter(string(valid), "\n")
	if len(lines) < 3 {
		t.Fatalf("need at least header + 2 records, got %d lines", len(lines))
	}
	flip := make([]byte, len(valid))
	copy(flip, valid)
	// Flip a bit inside the last record's data, away from any newline.
	flip[len(flip)-10] ^= 0x01

	skew := strings.Replace(string(valid), `"version":1`, `"version":99`, 1)

	return map[string][]byte{
		"empty":             nil,
		"unterminated":      valid[:len(valid)-1],
		"truncated record":  []byte(lines[0] + lines[1][:len(lines[1])/2]),
		"bit flip":          flip,
		"bad magic":         []byte(strings.Replace(string(valid), magic, "other.format", 1)),
		"version skew":      []byte(skew),
		"missing header":    []byte(strings.Join(lines[1:], "")),
		"reordered records": []byte(lines[0] + lines[2] + lines[1]),
		"duplicated record": []byte(lines[0] + lines[1] + lines[1]),
		"garbage line":      append(append([]byte{}, valid...), []byte("not json\n")...),
		"trailing data":     []byte(strings.TrimSuffix(string(valid), "\n") + " {}\n"),
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	path := tempJournal(t)
	j, err := Create(path, "grid", "fp")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(payload{"rec", i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(valid); err != nil {
		t.Fatalf("Decode(valid) = %v", err)
	}

	for name, data := range corruptions(t, valid) {
		t.Run(name, func(t *testing.T) {
			_, _, err := Decode(data)
			var ce *CorruptJournalError
			if !errors.As(err, &ce) {
				t.Fatalf("Decode = %v, want *CorruptJournalError", err)
			}
			if ce.Line < 1 {
				t.Errorf("Line = %d, want >= 1", ce.Line)
			}
			// The corrupt file must also refuse to resume through Open.
			if err := os.WriteFile(path+".bad", data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path+".bad", "grid", "fp"); !errors.As(err, &ce) {
				t.Fatalf("Open(corrupt) = %v, want *CorruptJournalError", err)
			}
		})
	}
}

func TestAppendUnmarshalableRollsBack(t *testing.T) {
	path := tempJournal(t)
	j, err := Create(path, "grid", "fp")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := j.Append(func() {}); err == nil {
		t.Fatal("Append(func) should fail")
	}
	if j.Len() != 0 {
		t.Fatalf("failed Append must roll back; Len = %d", j.Len())
	}
	if err := j.Append(payload{"ok", 1}); err != nil {
		t.Fatalf("Append after rollback: %v", err)
	}
}
