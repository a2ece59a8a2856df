package simdperf

import (
	"time"
)

// A shared virtual machine's neighbours slow it continuously by a few
// percent and, in episodes of seconds to minutes, by up to 1.6 times (as
// seen on a 2-vCPU Intel Xeon VM), so raw times of identical runs differ by
// more than any useful regression bound. The benchmark therefore reads a
// fixed reference probe throughout the timed phase, whenever the program
// is idle, and reports every timing normalized to the probe's speed next
// to it: the time the operation would have taken on the machine at the
// speed where the probe takes probeNominal. A change to the program does
// not move the probe; a neighbour slows both.

// probeNominal is the probe's reading on a quiet 2-vCPU Intel Xeon
// (Sapphire Rapids) virtual machine, where normalized and measured times
// agree. On other machines they differ by a constant factor, and only
// normalized times from one machine compare.
const probeNominal = 1290 * time.Microsecond

// refProbe is frozen reference work written like the library's emulated
// kernels: a vertical 3-tap filter over a fixed 640x480 plane in 16-lane
// registers held as arrays, through calls the compiler may not inline. It
// lives in the benchmark, so no change to the library moves it. It slows
// under the neighbours much as the emulated kernels do; a plain scalar
// loop slows less, and a scalar blur more.
type refProbe struct {
	src, dst []uint8
	ops      int // counts lane operations, as a trace counter would
}

const probeW, probeH = 640, 480

type lanes [16]uint8

func newRefProbe() *refProbe {
	p := &refProbe{src: make([]uint8, probeW*probeH), dst: make([]uint8, probeW*probeH)}
	x := uint32(2463534242)
	for i := range p.src {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p.src[i] = uint8(x)
	}
	return p
}

// probeReps is how many times one reading runs the reference work. The
// first run refills the caches the program has just used, so its time
// depends on the program; the fastest run does not.
const probeReps = 3

// read returns the fastest of probeReps runs of the reference work.
func (p *refProbe) read() time.Duration {
	best := p.run()
	for i := 1; i < probeReps; i++ {
		best = min(best, p.run())
	}
	return best
}

// run times the reference work once.
func (p *refProbe) run() time.Duration {
	t0 := time.Now()
	w := probeW
	for y := 1; y < probeH-1; y++ {
		for x := 0; x+16 <= w; x += 16 {
			var a, b, c lanes
			copy(a[:], p.src[(y-1)*w+x:])
			copy(b[:], p.src[y*w+x:])
			copy(c[:], p.src[(y+1)*w+x:])
			r := p.add(p.halve(p.halve(a, c), b), b)
			copy(p.dst[y*w+x:], r[:])
		}
	}
	return time.Since(t0)
}

//go:noinline
func (p *refProbe) halve(a, b lanes) lanes {
	p.ops++
	var r lanes
	for i := range r {
		r[i] = uint8((uint16(a[i]) + uint16(b[i])) >> 1)
	}
	return r
}

//go:noinline
func (p *refProbe) add(a, b lanes) lanes {
	p.ops++
	var r lanes
	for i := range r {
		r[i] = a[i] + b[i]
	}
	return r
}

// reading is one run of the probe during a timed phase.
type reading struct {
	at       time.Duration // when the probe finished, from the start of the phase
	took     time.Duration
	cpuStart time.Duration // process CPU time before and after the probe
	cpuEnd   time.Duration
}

// probeLog is the sequence of probe readings of one timed phase.
type probeLog struct {
	probe *refProbe
	start time.Time
	rs    []reading
}

func newProbeLog(p *refProbe) *probeLog {
	return &probeLog{probe: p, start: time.Now()}
}

// read reads the probe and records the reading.
func (l *probeLog) read() {
	c0 := cpuTime()
	took := l.probe.read()
	l.rs = append(l.rs, reading{at: time.Since(l.start), took: took, cpuStart: c0, cpuEnd: cpuTime()})
}

// sinceLast is how long ago the last reading finished.
func (l *probeLog) sinceLast() time.Duration {
	if len(l.rs) == 0 {
		return time.Since(l.start)
	}
	return time.Since(l.start) - l.rs[len(l.rs)-1].at
}

// factor normalizes a time measured from a to b (offsets from the phase
// start): probeNominal over the mean of the last reading finished by a and
// the first finished after b. A side without a reading takes the other's.
func (l *probeLog) factor(a, b time.Duration) float64 {
	var before, after time.Duration
	for _, r := range l.rs {
		if r.at <= a {
			before = r.took
		}
		if r.at >= b && after == 0 {
			after = r.took
		}
	}
	switch {
	case before == 0:
		before = after
	case after == 0:
		after = before
	}
	if before == 0 {
		return 1
	}
	return float64(probeNominal) / (float64(before+after) / 2)
}

// normalizedCPU is the process CPU time spent between the first and the
// last reading, the probes' own time left out, each stretch between two
// readings normalized by them.
func (l *probeLog) normalizedCPU() time.Duration {
	var sum float64
	for i := 1; i < len(l.rs); i++ {
		prev, next := l.rs[i-1], l.rs[i]
		sum += float64(next.cpuStart-prev.cpuEnd) * float64(probeNominal) / (float64(prev.took+next.took) / 2)
	}
	return time.Duration(sum)
}

// medianReading is the median probe time in milliseconds.
func (l *probeLog) medianReading() float64 {
	xs := make([]float64, len(l.rs))
	for i, r := range l.rs {
		xs[i] = ms(r.took)
	}
	return Median(xs)
}
