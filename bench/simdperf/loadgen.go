package simdperf

import (
	"time"

	"simdstudy/internal/trace"
)

// Result is one attempted operation.
type Result struct {
	Req  Request
	Code int // HTTP status; paper calls report 200 on success
	// Checksum is the response checksum (the FNV-1a fold of the output
	// plane), ElapsedUS the server's dispatch time and Memo its X-Memo
	// outcome; paper calls leave the last two empty and carry their
	// trace counter in Trace.
	Checksum  uint64
	ElapsedUS int64
	Memo      string
	Trace     *trace.Counter
	// Start is when the operation was sent, from the start of the timed
	// phase; Latency runs from then to completion.
	Start   time.Duration
	Latency time.Duration
	// Bad names why the operation failed, "" when it succeeded and its
	// output verified.
	Bad string
}

// OK reports whether the operation succeeded with a verified output.
func (r Result) OK() bool { return r.Code == 200 && r.Bad == "" }

// sendFunc performs one operation synchronously and reports its outcome;
// runClosed fills in the timing fields.
type sendFunc func(Request) Result

// probeEvery is the least time between two probe readings.
const probeEvery = 100 * time.Millisecond

// runClosed is one client sending requests back to back, reading the
// probe between two requests every probeEvery. It stops at the first round
// boundary after the run length, so every run covers whole balanced rounds
// and its cost mix does not depend on where time ran out.
func runClosed(reqs []Request, roundLen int, run time.Duration, pl *probeLog, send sendFunc) []Result {
	var results []Result
	pl.read()
	for i, r := range reqs {
		if i > 0 && i%roundLen == 0 && time.Since(pl.start) >= run {
			break
		}
		if pl.sinceLast() >= probeEvery {
			pl.read()
		}
		sent := time.Since(pl.start)
		res := send(r)
		res.Start, res.Latency = sent, time.Since(pl.start)-sent
		results = append(results, res)
	}
	pl.read()
	return results
}
