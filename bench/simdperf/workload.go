package simdperf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/memo"
	"simdstudy/internal/serve"
)

// Request is one generated operation: a /process request for the serving
// workloads (kernel, ISA, image seed), or one traced paper kernel call for
// paper_trace (bench name, ISA, burst image 1..5 in Seed).
type Request struct {
	Kernel string
	ISA    string
	Seed   uint64
}

// Workload is one traffic mix, sent by one closed-loop client: the next
// request goes out when the previous one has completed. The program under
// test only ever receives the requests Schedule generates from the seed.
type Workload struct {
	Name string
	Why  string
	// Width x Height is the request geometry.
	Width, Height int
	Kernels       []string
	ISAs          []string
	// Seeds draws each request's image seed uniformly from 1..Seeds.
	Seeds uint64
	// ZipfKeys > 0 replaces the balanced mix with a stratified Zipf(ZipfS) sequence over
	// that many (kernel, ISA, seed) keys, mapped as simdload -dup-keys does.
	ZipfKeys int
	ZipfS    float64
	// SLO is the latency limit of slo_attainment.
	SLO time.Duration
	// DeadlineMS is sent with every request; 0 keeps the server default.
	DeadlineMS int
	// Server is the server configuration; nil for paper_trace, which runs
	// kernels through cv.Ops without a server.
	Server func() serve.Config
}

var (
	allISAs     = []string{"neon", "sse2", "scalar"}
	simdISAs    = []string{"neon", "sse2"}
	paperISAs   = simdISAs
	paperImages = uint64(5)
)

// servedDefaults is the configuration cmd/simdserved runs with no flags:
// the zero Config plus its one-second telemetry sampler.
func servedDefaults() serve.Config {
	return serve.Config{SampleInterval: time.Second}
}

// Workloads lists the benchmark's workloads.
var Workloads = []Workload{
	{
		Name:   "vga_mixed",
		Why:    "the paper's common request: emulated kernels and the guard referee do the work; memo, par and fuse do none",
		Width:  640,
		Height: 480,
		// Every serving kernel.
		Kernels: serve.KernelNames(),
		ISAs:    allISAs,
		Seeds:   4,
		SLO:     250 * time.Millisecond,
		Server:  servedDefaults,
	},
	{
		Name:     "vga_zipf_memo",
		Why:      "repeated keys under a warm 32 MiB memo: hits cost synthesis and keying, misses evict, so hit and insert paths both show",
		Width:    640,
		Height:   480,
		Kernels:  serve.KernelNames(),
		ISAs:     allISAs,
		ZipfKeys: 256,
		ZipfS:    1.1,
		SLO:      250 * time.Millisecond,
		Server: func() serve.Config {
			c := servedDefaults()
			c.Memo = memo.Config{MaxBytes: 32 << 20}
			return c
		},
	},
	{
		Name:       "5mp_banded_fused",
		Why:        "5 Mpx planes far beyond the LLC: the par band pool and fuse strips do the work; admission idles and memo is off",
		Width:      2592,
		Height:     1920,
		Kernels:    []string{"convert", "threshold", "gaussian", "sobel", "edges", "canny"},
		ISAs:       allISAs,
		Seeds:      2,
		SLO:        2 * time.Second,
		DeadlineMS: 10000,
		Server: func() serve.Config {
			c := servedDefaults()
			c.Parallel = cv.ParallelConfig{Workers: 2}
			c.Fuse = cv.FuseConfig{Enabled: true}
			c.MaxPixels = 1 << 23
			return c
		},
	},
	{
		Name:   "paper_trace",
		Why:    "the instrument behind the paper's inst/px tables: trace.Counter recording and emulation do the work; serve and memo do none",
		Width:  640,
		Height: 480,
		Kernels: func() []string {
			var names []string
			for _, b := range paperBenches {
				names = append(names, b.name)
			}
			return names
		}(),
		ISAs:  paperISAs,
		Seeds: paperImages,
		SLO:   250 * time.Millisecond,
	},
}

// WorkloadNamed returns the named workload.
func WorkloadNamed(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range Workloads {
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// RoundLen is how many requests one balanced round holds: every
// (kernel, ISA) pair once, or every (bench, ISA, image) triple once for
// paper_trace. A run stops only at a round boundary.
func (w Workload) RoundLen() int {
	n := len(w.Kernels) * len(w.ISAs)
	if w.Server == nil {
		n *= int(w.Seeds)
	}
	return n
}

// scheduleRounds bounds a schedule; the run length ends a run long before
// it runs out.
const scheduleRounds = 256

// Schedule generates the workload's requests. The balanced mixes are drawn
// in shuffled rounds that hold every (kernel, ISA) pair once, so a run's
// cost mix does not depend on the seed. The Zipf mix spreads each key
// evenly over the schedule, so the start a run uses holds the same keys,
// equally often, for every seed.
func (w Workload) Schedule(seed uint64) []Request {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := w.RoundLen() * scheduleRounds
	reqs := make([]Request, 0, n)
	switch {
	case w.ZipfKeys > 0:
		for _, idx := range stratifiedZipf(n, w.ZipfKeys, w.ZipfS, rng) {
			reqs = append(reqs, Request{
				Kernel: w.Kernels[idx%uint64(len(w.Kernels))],
				ISA:    w.ISAs[idx%uint64(len(w.ISAs))],
				Seed:   idx + 1,
			})
		}
	case w.Server == nil:
		for len(reqs) < n {
			round := make([]Request, 0, w.RoundLen())
			for _, k := range w.Kernels {
				for _, isa := range w.ISAs {
					for img := uint64(1); img <= w.Seeds; img++ {
						round = append(round, Request{Kernel: k, ISA: isa, Seed: img})
					}
				}
			}
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			reqs = append(reqs, round...)
		}
	default:
		for len(reqs) < n {
			round := make([]Request, 0, w.RoundLen())
			for _, k := range w.Kernels {
				for _, isa := range w.ISAs {
					round = append(round, Request{Kernel: k, ISA: isa, Seed: 1 + uint64(rng.Int63n(int64(w.Seeds)))})
				}
			}
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			reqs = append(reqs, round...)
		}
	}
	return reqs
}

// stratifiedZipf returns n key indices in [0, keys) whose counts follow
// Zipf(s) exactly (P(k) proportional to (1+k)^-s, as rand.Zipf with v=1
// draws), rounded by largest remainder. Each key's occurrences are spread
// evenly over the sequence from a phase drawn from rng, so every stretch of
// it, a run's prefix included, holds each key in proportion to within one.
// Seeds then differ only in where each key's occurrences fall, and a run's
// hit ratio does not depend on the seed.
func stratifiedZipf(n, keys int, s float64, rng *rand.Rand) []uint64 {
	weights := make([]float64, keys)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -s)
		total += weights[k]
	}
	counts := make([]int, keys)
	rem := make([]int, keys)
	left := n
	for k, wt := range weights {
		exact := float64(n) * wt / total
		counts[k] = int(exact)
		left -= counts[k]
		rem[k] = k
		weights[k] = exact - float64(counts[k])
	}
	sort.SliceStable(rem, func(i, j int) bool { return weights[rem[i]] > weights[rem[j]] })
	for _, k := range rem[:left] {
		counts[k]++
	}
	type occurrence struct {
		at  float64 // position in [0, 1)
		key int
	}
	occs := make([]occurrence, 0, n)
	for k, c := range counts {
		phase := rng.Float64()
		for i := 0; i < c; i++ {
			occs = append(occs, occurrence{(float64(i) + phase) / float64(c), k})
		}
	}
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].at != occs[j].at {
			return occs[i].at < occs[j].at
		}
		return occs[i].key < occs[j].key
	})
	out := make([]uint64, n)
	for i, o := range occs {
		out[i] = uint64(o.key)
	}
	return out
}
