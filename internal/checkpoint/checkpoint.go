// Package checkpoint is the crash-safety journal behind resumable long
// runs: a versioned, checksummed, line-oriented record log that is replaced
// atomically (write-temp, fsync, rename) on every append, so a SIGKILL at
// any instant leaves either the previous complete journal or the next one —
// never a torn file.
//
// The harness journals one record per completed grid cell or campaign
// image; a restarted process replays the journal and recomputes only the
// remainder. Because the workload itself is deterministic (per-(pass, row)
// fault reseeding, worker-count-invariant counters — see DESIGN.md §12),
// replay + remainder is bit-identical to an uninterrupted run; the tests in
// internal/harness prove it.
//
// The decoder is strict: a truncated, bit-flipped, version-skewed or
// otherwise damaged journal yields a typed *CorruptJournalError (never a
// panic, never a silent partial resume), and a journal written by a
// different configuration — detected by a caller-supplied fingerprint —
// yields a typed *MismatchError. Callers treat corruption as a cold start
// and mismatch as an operator error.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// Version is the journal format version this package writes and accepts.
const Version = 1

// magic identifies a journal header line.
const magic = "simdstudy.checkpoint"

// Meta is a journal's identity: the format version, what kind of run wrote
// it ("grid", "campaign", "quarantine", ...) and a fingerprint of the
// configuration whose results it holds.
type Meta struct {
	Journal     string `json:"journal"`
	Version     int    `json:"version"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fp"`
	CRC         uint32 `json:"crc"`
}

// Record is one journaled unit of completed work. Seq numbers are assigned
// by Append and must be contiguous from zero; Data is the caller's payload,
// exactly as marshaled.
type Record struct {
	Seq  int             `json:"seq"`
	Data json.RawMessage `json:"data"`
	CRC  uint32          `json:"crc"`
}

// CorruptJournalError reports a journal that failed strict decoding:
// truncated, bit-flipped, version-skewed, or structurally invalid. Callers
// must fall back to a cold start — the journal carries no trustworthy state.
type CorruptJournalError struct {
	Path   string // empty when decoding a byte slice
	Line   int    // 1-based line of the first defect
	Reason string
}

// Error implements error.
func (e *CorruptJournalError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("checkpoint: corrupt journal: line %d: %s", e.Line, e.Reason)
	}
	return fmt.Sprintf("checkpoint: corrupt journal %s: line %d: %s", e.Path, e.Line, e.Reason)
}

// MismatchError reports a structurally valid journal written by a different
// configuration (kind or fingerprint differs). Resuming from it would mix
// results of two different runs, so callers must refuse rather than cold
// start over someone else's journal.
type MismatchError struct {
	Path  string
	Field string // "kind" or "fingerprint"
	Want  string
	Got   string
}

// Error implements error.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: journal %s was written by a different configuration: %s %q, want %q",
		e.Path, e.Field, e.Got, e.Want)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func metaCRC(version int, kind, fp string) uint32 {
	return crc32.Checksum([]byte(fmt.Sprintf("%d\x00%s\x00%s", version, kind, fp)), castagnoli)
}

func recordCRC(seq int, data []byte) uint32 {
	h := crc32.New(castagnoli)
	fmt.Fprintf(h, "%d\x00", seq)
	h.Write(data)
	return h.Sum32()
}

// Journal is an append-only checkpoint log bound to one file. All methods
// are safe for concurrent use; Append serializes writers, so concurrent
// grid cells may checkpoint through one Journal.
type Journal struct {
	mu      sync.Mutex
	path    string
	meta    Meta
	records []Record
}

// Create writes a fresh journal (header only) at path, atomically replacing
// anything already there.
func Create(path, kind, fingerprint string) (*Journal, error) {
	j := &Journal{
		path: path,
		meta: Meta{
			Journal: magic, Version: Version, Kind: kind, Fingerprint: fingerprint,
			CRC: metaCRC(Version, kind, fingerprint),
		},
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flushLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// Open loads and strictly validates an existing journal. It returns a
// *CorruptJournalError for a damaged file, a *MismatchError for a valid
// journal written under a different kind or fingerprint, and the underlying
// fs error (os.IsNotExist-able) when the file is absent.
func Open(path, kind, fingerprint string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	meta, records, err := Decode(data)
	if err != nil {
		var ce *CorruptJournalError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	if meta.Kind != kind {
		return nil, &MismatchError{Path: path, Field: "kind", Want: kind, Got: meta.Kind}
	}
	if meta.Fingerprint != fingerprint {
		return nil, &MismatchError{Path: path, Field: "fingerprint", Want: fingerprint, Got: meta.Fingerprint}
	}
	return &Journal{path: path, meta: meta, records: records}, nil
}

// OpenOrCreate is the resume policy used by the harness and the serving
// layer: an existing matching journal is resumed; a missing journal starts
// cold; a corrupt journal is discarded and restarted cold, with the decode
// failure returned as warn so callers can surface it. Only a fingerprint or
// kind mismatch is a hard error — that journal belongs to a different run.
func OpenOrCreate(path, kind, fingerprint string) (j *Journal, resumed bool, warn error, err error) {
	j, oerr := Open(path, kind, fingerprint)
	switch {
	case oerr == nil:
		return j, true, nil, nil
	case os.IsNotExist(oerr):
		j, err = Create(path, kind, fingerprint)
		return j, false, nil, err
	default:
		var ce *CorruptJournalError
		if errors.As(oerr, &ce) {
			j, err = Create(path, kind, fingerprint)
			return j, false, oerr, err
		}
		return nil, false, nil, oerr
	}
}

// Decode strictly parses journal bytes into metadata and records. It is the
// pure decoder behind Open and the fuzz target: every failure is a typed
// *CorruptJournalError and no input panics.
func Decode(data []byte) (Meta, []Record, error) {
	var meta Meta
	if len(data) == 0 {
		return meta, nil, &CorruptJournalError{Line: 1, Reason: "empty journal"}
	}
	if data[len(data)-1] != '\n' {
		// Journals are replaced atomically, so a complete file always ends in
		// a newline; anything else is a damaged copy.
		return meta, nil, &CorruptJournalError{Line: bytes.Count(data, []byte("\n")) + 1,
			Reason: "unterminated final line"}
	}
	lines := bytes.Split(data[:len(data)-1], []byte("\n"))
	if err := strictUnmarshal(lines[0], &meta); err != nil {
		return meta, nil, &CorruptJournalError{Line: 1, Reason: "bad header: " + err.Error()}
	}
	if meta.Journal != magic {
		return meta, nil, &CorruptJournalError{Line: 1, Reason: fmt.Sprintf("bad magic %q", meta.Journal)}
	}
	if meta.Version != Version {
		return meta, nil, &CorruptJournalError{Line: 1,
			Reason: fmt.Sprintf("version skew: journal v%d, decoder v%d", meta.Version, Version)}
	}
	if meta.CRC != metaCRC(meta.Version, meta.Kind, meta.Fingerprint) {
		return meta, nil, &CorruptJournalError{Line: 1, Reason: "header checksum mismatch"}
	}
	records := make([]Record, 0, len(lines)-1)
	for i, line := range lines[1:] {
		var rec Record
		if err := strictUnmarshal(line, &rec); err != nil {
			return meta, nil, &CorruptJournalError{Line: i + 2, Reason: "bad record: " + err.Error()}
		}
		if rec.Seq != i {
			return meta, nil, &CorruptJournalError{Line: i + 2,
				Reason: fmt.Sprintf("sequence gap: record %d, want %d", rec.Seq, i)}
		}
		if len(rec.Data) == 0 {
			return meta, nil, &CorruptJournalError{Line: i + 2, Reason: "record without data"}
		}
		if rec.CRC != recordCRC(rec.Seq, rec.Data) {
			return meta, nil, &CorruptJournalError{Line: i + 2, Reason: "record checksum mismatch"}
		}
		records = append(records, rec)
	}
	return meta, records, nil
}

// strictUnmarshal decodes one JSON value rejecting unknown fields and
// trailing garbage, so a corrupted line cannot alias a valid one.
func strictUnmarshal(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after value")
	}
	return nil
}

// Append marshals v, appends it as the next record and atomically replaces
// the journal file. When Append returns, the record is durable: a kill at
// any later instant resumes past it.
func (j *Journal) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := len(j.records)
	j.records = append(j.records, Record{Seq: seq, Data: data, CRC: recordCRC(seq, data)})
	if err := j.flushLocked(); err != nil {
		j.records = j.records[:seq]
		return err
	}
	return nil
}

// flushLocked writes header+records to a temp file, fsyncs and renames it
// over the journal path. Callers hold mu.
func (j *Journal) flushLocked() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(j.meta); err != nil {
		return err
	}
	for _, rec := range j.records {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(filepath.Dir(j.path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Len returns the number of durable records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.records)
}

// Records returns a copy of the journal's records in sequence order.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, len(j.records))
	copy(out, j.records)
	return out
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }
