package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// clients is the closed-loop client count of every workload: one per
// CPU of the 2-CPU machines the benchmark is calibrated on.
const clients = 2

// schedule is the seeded request order of a run: back-to-back rounds,
// each a fresh shuffle of every input, so every input is sent equally
// often and the order still differs per seed. Clients draw from it in
// turn, so the order is shared, not per client.
type schedule struct {
	mu    sync.Mutex
	rng   *rand.Rand
	n     int
	round []int
	seq   int64
}

func newSchedule(seed int64, n int) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed)), n: n}
}

func (s *schedule) next() (idx int, seq int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.round) == 0 {
		s.round = s.rng.Perm(s.n)
	}
	idx, s.round = s.round[0], s.round[1:]
	s.seq++
	return idx, s.seq
}

// sample is one timed request.
type sample struct {
	input int
	seq   int64 // position in the schedule, from 1
	lat   time.Duration
	ok    bool
}

// loopResult is what one closed-loop phase observed.
type loopResult struct {
	samples  []sample
	elapsed  time.Duration
	allocB   uint64 // heap bytes allocated during the phase
	peakHeap uint64 // highest sampled live heap, when sampled
	// failures counts failed answers by input and reason: a mismatch
	// with the reference, or a cache status that contradicts the
	// workload (a hit or dedup on a cold workload, a miss on serve-hot).
	failures map[string]int
}

// runLoop drives clients closed-loop clients against t for dur: each
// client sends its next request only after the previous one returned.
// Requests start until dur has passed; the phase ends when the last one
// returns. Every answer is checked against the reference.
func runLoop(t target, ins []*input, ref reference, hot bool, seed int64, dur time.Duration, samplePeak bool) loopResult {
	sched := newSchedule(seed, len(ins))
	res := loopResult{failures: map[string]int{}}
	var mu sync.Mutex

	// The heap is sampled through runtime/metrics, which does not stop
	// the world the way runtime.ReadMemStats does.
	stopPeak := make(chan struct{})
	peakDone := make(chan uint64)
	if samplePeak {
		go func() {
			var peak uint64
			sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > peak {
					peak = v
				}
				select {
				case <-stopPeak:
					peakDone <- peak
					return
				case <-tick.C:
				}
			}
		}()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			fails := map[string]int{}
			for time.Now().Before(deadline) {
				idx, seq := sched.next()
				in := ins[idx]
				req := t.prepare(in, seq)
				lat, answers := t.do(in, req)
				ok := true
				for _, a := range answers {
					why := ref.mismatch(a)
					switch {
					case why != "":
					case hot && !a.cached:
						why = "cache miss in the timed phase of a hot workload"
					case !hot && (a.cached || a.deduped):
						why = "cache hit or dedup on a cold workload"
					}
					if why != "" {
						fails[a.name+": "+why]++
						ok = false
					}
				}
				local = append(local, sample{input: idx, seq: seq, lat: lat, ok: ok})
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			for k, v := range fails {
				res.failures[k] += v
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	res.allocB = after.TotalAlloc - before.TotalAlloc
	if samplePeak {
		close(stopPeak)
		res.peakHeap = <-peakDone
	}
	return res
}

// okCount counts the requests whose every answer matched the reference.
func okCount(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

// wholeRounds returns the samples of the schedule's complete rounds, so
// every input weighs the same in the latency and throughput figures of
// every run; the trailing partial round is left out of them (its answers
// are checked like all others). A run shorter than one round keeps all
// its samples.
func (r loopResult) wholeRounds(nInputs int) []sample {
	last := int64(len(r.samples) / nInputs * nInputs)
	if last == 0 {
		return r.samples
	}
	out := make([]sample, 0, last)
	for _, s := range r.samples {
		if s.seq <= last {
			out = append(out, s)
		}
	}
	return out
}

// qps is the closed-loop throughput by Little's law: clients over the
// mean latency, counting verified answers only. Unlike answers over wall
// time it does not depend on how long the last request overran the
// deadline while the other client sat idle.
func qps(samples []sample) float64 {
	var busy time.Duration
	for _, s := range samples {
		busy += s.lat
	}
	return clients * float64(okCount(samples)) / busy.Seconds()
}

// endToEnd computes the end-to-end metrics of a timed phase.
func (r loopResult) endToEnd(nInputs int) map[string]float64 {
	whole := r.wholeRounds(nInputs)
	lats := make([]float64, len(whole))
	perInput := make([][]float64, nInputs)
	for i, s := range whole {
		ms := float64(s.lat) / float64(time.Millisecond)
		lats[i] = ms
		perInput[s.input] = append(perInput[s.input], ms)
	}
	logSum, cases := 0.0, 0
	for _, l := range perInput {
		if len(l) > 0 {
			logSum += math.Log(median(l))
			cases++
		}
	}
	n := float64(len(r.samples))
	return map[string]float64{
		"qps":              qps(whole),
		"p50_ms":           quantile(lats, 0.50),
		"p90_ms":           quantile(lats, 0.90),
		"case_geomean_ms":  math.Exp(logSum / float64(cases)),
		"decided_share":    float64(okCount(r.samples)) / n,
		"alloc_mb_per_req": float64(r.allocB) / 1e6 / n,
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}
