package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/mcm"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/serve"
	"repro/internal/transform"
	"repro/internal/verify"
)

// Probe repetition: each probe of one input runs at least once and is
// repeated while its total stays under probeBudget, up to probeReps
// runs; the probe reports the median. Slow calls (a stalled hedge, MCM
// on mp3 playback) therefore run once, fast ones many times.
const (
	probeReps   = 25
	probeBudget = 100 * time.Millisecond
	// engineDeadline bounds each engine run alone, as a request
	// deadline would.
	engineDeadline = 2 * time.Second
	// A hedged race stalled when its caller waited more than
	// stallFactor times the winner's own wall time, and at least
	// stallFloor beyond it (sub-millisecond races pass 10× on goroutine
	// start-up alone).
	stallFactor = 10
	stallFloor  = 10 * time.Millisecond
	// hedgeRaces is the fixed number of races per graph, so the win and
	// stall counts compare across runs.
	hedgeRaces = 3
)

// table1Counts are EXPERIMENTS.md's measured Table-1 columns: actors of
// the traditional and of the new conversion per case.
var table1Counts = map[string][2]int{
	"h.263 decoder":         {1190, 14},
	"h.263 encoder":         {201, 14},
	"modem":                 {46, 243},
	"mp3 dec. block par.":   {911, 10},
	"mp3 dec. granule par.": {27, 10},
	"mp3 playback":          {10601, 23},
	"sample rate conv.":     {612, 31},
	"satellite":             {3736, 194},
}

// timeIt runs f as the probe repetition rule says and returns the
// median wall time. The first error stops the repetition.
func timeIt(f func() error) (time.Duration, error) {
	return repeat(func() (time.Duration, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	})
}

// repeat is timeIt for calls that measure their own latency.
func repeat(f func() (time.Duration, error)) (time.Duration, error) {
	var walls []float64
	var total time.Duration
	for len(walls) < probeReps && (len(walls) == 0 || total < probeBudget) {
		d, err := f()
		if err != nil {
			return d, err
		}
		total += d
		walls = append(walls, float64(d))
	}
	return time.Duration(median(walls)), nil
}

// meanAcc averages per-input medians into one per-layer figure.
type meanAcc struct {
	sum float64
	n   int
}

func (a *meanAcc) add(d time.Duration) { a.sum += float64(d); a.n++ }

func (a *meanAcc) ms() float64 { return a.mean() / float64(time.Millisecond) }
func (a *meanAcc) us() float64 { return a.mean() / float64(time.Microsecond) }
func (a *meanAcc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// layers collects per-layer metrics and the failures the probes found.
type layers struct {
	ref      reference
	metrics  map[string]float64
	failures map[string]int
	lines    []string // human-readable report lines
}

func (l *layers) fail(format string, args ...any) {
	l.failures[fmt.Sprintf(format, args...)]++
}

// engineCtx is the context a serve replica gives an engine: the
// deadline plus the default budget derived from it.
func engineCtx(d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	return guard.WithBudget(ctx, guard.BudgetFrom(ctx)), cancel
}

// probeWire times the wire-facing layers on every distinct input:
// decode, text parse, cache key, an in-process cache hit on a warm
// replica and the JSON render of its payload.
func (l *layers) probeWire(ins []*input, warm *serve.Server) {
	var decode, parse, key, render, hit meanAcc
	ctx := context.Background()
	for _, in := range ins {
		var (
			decodeFn func() error
			keyFn    func()
			hitFn    func() (any, error)
			texts    []string
		)
		switch in.kind {
		case kindGraph:
			req, err := serve.DecodeRequest(in.body)
			if err != nil {
				l.fail("%s: decode: %v", in.name, err)
				continue
			}
			decodeFn = func() error { _, err := serve.DecodeRequest(in.body); return err }
			keyFn = func() { req.Key() }
			hitFn = func() (any, error) { return warm.Analyze(ctx, req) }
			texts = []string{sdfio.TextString(in.graph)}
		case kindSADF:
			req, err := serve.DecodeSADFRequest(in.body)
			if err != nil {
				l.fail("%s: decode: %v", in.name, err)
				continue
			}
			decodeFn = func() error { _, err := serve.DecodeSADFRequest(in.body); return err }
			keyFn = func() { req.Key() }
			hitFn = func() (any, error) { return warm.AnalyzeSADF(ctx, req) }
		case kindBatch:
			breq, err := serve.DecodeBatchRequest(in.body)
			if err != nil {
				l.fail("%s: decode: %v", in.name, err)
				continue
			}
			decodeFn = func() error { _, err := serve.DecodeBatchRequest(in.body); return err }
			keyFn = func() {
				for _, it := range breq.Items {
					it.Req.Key()
				}
			}
			hitFn = func() (any, error) { return warm.AnalyzeBatch(ctx, breq) }
			for _, g := range in.items {
				texts = append(texts, sdfio.TextString(g))
			}
		}
		d, err := timeIt(decodeFn)
		if err != nil {
			l.fail("%s: decode: %v", in.name, err)
		}
		decode.add(d)
		d, _ = timeIt(func() error { keyFn(); return nil })
		key.add(d)
		if in.kind == kindSADF {
			text := sdfio.SADFTextString(in.model)
			d, err = timeIt(func() error { _, err := sdfio.ParseSADFText(text); return err })
		} else {
			d, err = timeIt(func() error {
				for _, t := range texts {
					if _, err := sdfio.ParseText(t); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err != nil {
			l.fail("%s: parse: %v", in.name, err)
		}
		parse.add(d)

		var payload any
		d, err = timeIt(func() error {
			var err error
			payload, err = hitFn()
			return err
		})
		if err != nil {
			l.fail("%s: in-process hit: %v", in.name, err)
			continue
		}
		for _, a := range payloadAnswers(in, payload) {
			if why := l.ref.mismatch(a); why != "" {
				l.fail("%s: in-process hit: %s", a.name, why)
			} else if !a.cached {
				l.fail("%s: in-process probe on a warm replica missed the cache", a.name)
			}
		}
		hit.add(d)
		d, err = timeIt(func() error { _, err := json.Marshal(payload); return err })
		if err != nil {
			l.fail("%s: render: %v", in.name, err)
		}
		render.add(d)
	}
	l.metrics["serve.decode_us"] = decode.us()
	l.metrics["sdfio.parse_us"] = parse.us()
	l.metrics["serve.key_us"] = key.us()
	l.metrics["serve.inproc_hit_us"] = hit.us()
	l.metrics["serve.render_us"] = render.us()
}

func payloadAnswers(in *input, payload any) []answer {
	switch p := payload.(type) {
	case *serve.ResultPayload:
		return []answer{graphAnswer(in.name, p, nil)}
	case *serve.SADFResultPayload:
		return []answer{sadfAnswer(in.name, p, nil)}
	case *serve.BatchResultPayload:
		return batchAnswers(in, p, nil)
	}
	return nil
}

// probeFleet times the router hop on every distinct input: the median
// of the same cached request through the router minus its median sent
// to a replica directly. The router's attempt and hedge counters over
// these requests give the attempts per request and the hedge share.
func (l *layers) probeFleet(ins []*input, ft *fleetTarget) {
	reg := ft.router.Registry()
	attempts0 := counterSum(reg, obs.MetricFleetAttempts)
	hedges0 := counterSum(reg, obs.MetricFleetHedgeWins) + counterSum(reg, obs.MetricFleetHedgeLosses)
	routed := 0
	var hop meanAcc
	for _, in := range ins {
		send := func(base string) (time.Duration, error) {
			lat, answers := ft.post(base, in)
			for _, a := range answers {
				if why := l.ref.mismatch(a); why != "" {
					return lat, fmt.Errorf("%s: %s", a.name, why)
				}
			}
			return lat, nil
		}
		viaRouter, err := repeat(func() (time.Duration, error) { routed++; return send(ft.front.URL) })
		if err != nil {
			l.fail("%s: via router: %v", in.name, err)
			continue
		}
		direct, err := repeat(func() (time.Duration, error) { return send(ft.replicas[0].URL) })
		if err != nil {
			l.fail("%s: direct to replica: %v", in.name, err)
			continue
		}
		hop.add(viaRouter - direct)
	}
	attempts := counterSum(reg, obs.MetricFleetAttempts) - attempts0
	hedges := counterSum(reg, obs.MetricFleetHedgeWins) + counterSum(reg, obs.MetricFleetHedgeLosses) - hedges0
	l.metrics["fleet.hop_ms"] = hop.ms()
	l.metrics["fleet.attempts_per_req"] = float64(attempts) / float64(routed)
	l.metrics["fleet.hedge_share"] = float64(hedges) / float64(routed)
}

// counterSum sums every series of a counter family.
func counterSum(reg *obs.Registry, name string) int64 {
	var n int64
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Kind == obs.KindCounter {
			n += s.Value
		}
	}
	return n
}

// probeReduce times the precheck and the reduction fixpoint per request
// (summed over a request's graphs: batch items, SADF scenarios). It
// returns the reductions of the throughput requests' graphs, which the
// engine probes analyse and lift.
func (l *layers) probeReduce(ins []*input) map[string]*passes.Reduction {
	ctx := refCtx()
	reds := map[string]*passes.Reduction{}
	var precheck, reduce meanAcc
	var allocB float64
	steps, calls := 0, 0
	for _, in := range ins {
		gs := in.graphs()
		d, err := timeIt(func() error {
			for _, g := range gs {
				if err := lint.PrecheckWith(passes.NewFacts(g)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			l.fail("%s: precheck: %v", in.name, err)
		}
		precheck.add(d)

		inSteps := 0
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		reps := 0
		d, err = timeIt(func() error {
			reps++
			n := 0
			for _, g := range gs {
				r, err := passes.Reduce(ctx, g, passes.Options{})
				if err != nil {
					return err
				}
				n += len(r.Steps)
				if in.kind != kindSADF {
					reds[g.Name()] = r
				}
			}
			if reps > 1 && n != inSteps {
				return fmt.Errorf("reduction chain length %d, previous run %d", n, inSteps)
			}
			inSteps = n
			return nil
		})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			l.fail("%s: reduce: %v", in.name, err)
		}
		reduce.add(d)
		allocB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(reps)
		calls++
		steps += inSteps
		if want := l.refSteps(in); inSteps != want {
			l.fail("%s: reduction chain of %d steps, reference %d", in.name, inSteps, want)
		}
	}
	l.metrics["lint.precheck_ms"] = precheck.ms()
	l.metrics["passes.reduce_ms"] = reduce.ms()
	l.metrics["passes.reduce_alloc_mb"] = allocB / 1e6 / float64(calls)
	l.metrics["passes.reduce_steps"] = float64(steps)
	return reds
}

func (l *layers) refSteps(in *input) int {
	if in.kind == kindBatch {
		n := 0
		for _, g := range in.items {
			n += l.ref[g.Name()].ReduceSteps
		}
		return n
	}
	return l.ref[in.name].ReduceSteps
}

// distinctGraphs returns the SDF graphs served as throughput requests
// (single or batch items), once each, in input order.
func distinctGraphs(ins []*input) []*sdf.Graph {
	var gs []*sdf.Graph
	seen := map[string]bool{}
	for _, in := range ins {
		if in.kind == kindSADF {
			continue
		}
		for _, g := range in.graphs() {
			if !seen[g.Name()] {
				seen[g.Name()] = true
				gs = append(gs, g)
			}
		}
	}
	return gs
}

// probeEngines runs, on the graph each engine sees in serving (the
// reduced graph when reduction applied), the hedged race, each engine
// alone, the paper's conversions, the eigenvalue, MCM on the
// traditional HSDF and the certificate check; then lifts and re-checks
// every reduced graph's certificate.
func (l *layers) probeEngines(gs []*sdf.Graph, reds map[string]*passes.Reduction) {
	ctx := refCtx()
	var hedge, overrun, lift meanAcc
	stalls := 0
	wins := map[analysis.Method]int{}
	engines := []analysis.Method{analysis.Matrix, analysis.StateSpace, analysis.HSDF}
	alone := map[analysis.Method]*meanAcc{}
	for _, m := range engines {
		alone[m] = &meanAcc{}
	}
	ssOK, ssRuns := 0, 0
	var sym, convSym, convTrad, eigen, ratio, check meanAcc
	for _, orig := range gs {
		g := orig
		red := reds[orig.Name()]
		if red != nil && len(red.Steps) > 0 {
			g = red.Final
		}
		want := l.ref[orig.Name()]

		// The hedged race, as serve runs it.
		var cert *verify.ThroughputCert
		var races []float64
		var raceErr error
		for i := 0; i < hedgeRaces && raceErr == nil; i++ {
			actx, cancel := engineCtx(5 * time.Second)
			t0 := time.Now()
			_, rep, err := analysis.ComputeThroughputHedgedOpts(actx, g, analysis.HedgeOptions{})
			race := time.Since(t0)
			cancel()
			if err != nil {
				raceErr = err
				break
			}
			races = append(races, float64(race))
			wins[rep.Winner]++
			for _, at := range rep.Attempts {
				if at.Method == rep.Winner {
					overrun.add(race - at.Wall)
					if race > stallFactor*at.Wall && race-at.Wall > stallFloor {
						stalls++
					}
				}
			}
			cert = rep.Certificates[rep.Winner]
		}
		if raceErr != nil {
			l.fail("%s: hedged race: %v", orig.Name(), raceErr)
			continue
		}
		hedge.add(time.Duration(median(races)))

		// Each engine alone under a request-like deadline.
		for _, m := range engines {
			var ok bool
			d, _ := timeIt(func() error {
				actx, cancel := engineCtx(engineDeadline)
				defer cancel()
				_, c, err := analysis.ComputeThroughputCertified(actx, g, m)
				ok = err == nil
				if m == analysis.Matrix && ok {
					cert = c
				}
				return nil
			})
			alone[m].add(d)
			if m == analysis.StateSpace {
				ssRuns++
				if ok {
					ssOK++
				}
			}
		}

		// The paper's layers: symbolic iteration, the two conversions,
		// the eigenvalue and MCM on the traditional HSDF.
		var sr *core.SymbolicResult
		d, err := timeIt(func() error { var err error; sr, err = core.SymbolicIterationCtx(ctx, g); return err })
		if err != nil {
			l.fail("%s: symbolic iteration: %v", orig.Name(), err)
			continue
		}
		sym.add(d)
		d, _ = timeIt(func() error { _, _, _, err := core.ConvertSymbolicCtx(ctx, g); return err })
		convSym.add(d)
		var h *sdf.Graph
		d, err = timeIt(func() error { var err error; h, _, err = transform.TraditionalCtx(ctx, g); return err })
		if err != nil {
			l.fail("%s: traditional conversion: %v", orig.Name(), err)
			continue
		}
		convTrad.add(d)
		d, _ = timeIt(func() error { _, _, err := sr.Matrix.EigenvalueCtx(ctx); return err })
		eigen.add(d)
		d, _ = timeIt(func() error { _, err := mcm.MaxCycleRatio(h); return err })
		ratio.add(d)
		d, err = timeIt(func() error { return cert.Check(ctx, g) })
		if err != nil {
			l.fail("%s: certificate check: %v", orig.Name(), err)
		}
		check.add(d)

		if red != nil && len(red.Steps) > 0 {
			d, err = timeIt(func() error {
				lifted, err := red.LiftCert(cert)
				if err != nil {
					return err
				}
				if err := lifted.Check(ctx, orig); err != nil {
					return err
				}
				if lifted.Unbounded != want.Unbounded || (!lifted.Unbounded && lifted.Period.String() != want.Period) {
					return fmt.Errorf("lifted period %v, reference %q", lifted.Period, want.Period)
				}
				return nil
			})
			if err != nil {
				l.fail("%s: lift + check: %v", orig.Name(), err)
			}
			lift.add(d)
		}
	}
	l.metrics["analysis.hedge_ms"] = hedge.ms()
	l.metrics["analysis.hedge_overrun_ms"] = overrun.ms()
	l.metrics["analysis.hedge_stalls"] = float64(stalls)
	for _, m := range engines {
		l.metrics["analysis.hedge_wins."+m.String()] = float64(wins[m])
		l.metrics["analysis."+m.String()+"_ms"] = alone[m].ms()
	}
	l.metrics["analysis.statespace_decided_share"] = float64(ssOK) / float64(ssRuns)
	l.metrics["core.symbolic_ms"] = sym.ms()
	l.metrics["core.convert_symbolic_ms"] = convSym.ms()
	l.metrics["transform.convert_traditional_ms"] = convTrad.ms()
	l.metrics["maxplus.eigen_ms"] = eigen.ms()
	l.metrics["mcm.ratio_ms"] = ratio.ms()
	l.metrics["verify.check_ms"] = check.ms()
	l.metrics["passes.lift_check_ms"] = lift.ms()
}

// probeSADF times the automaton analysis and its certificate check on
// every model.
func (l *layers) probeSADF(models []*sadf.Model) {
	ctx := refCtx()
	var analyze, check meanAcc
	nodes := 0
	for _, m := range models {
		var res *sadf.Result
		var cert *verify.SADFCert
		d, err := timeIt(func() error {
			var err error
			res, cert, err = sadf.Analyze(ctx, m)
			return err
		})
		if err != nil {
			l.fail("%s: sadf analysis: %v", m.Name, err)
			continue
		}
		analyze.add(d)
		nodes += res.AutomatonNodes
		if want := l.ref[m.Name].AutomatonNodes; res.AutomatonNodes != want {
			l.fail("%s: automaton of %d nodes, reference %d", m.Name, res.AutomatonNodes, want)
		}
		d, err = timeIt(func() error { return cert.Check(ctx, m.Graphs()) })
		if err != nil {
			l.fail("%s: sadf certificate check: %v", m.Name, err)
		}
		check.add(d)
	}
	l.metrics["sadf.analyze_ms"] = analyze.ms()
	l.metrics["sadf.automaton_nodes"] = float64(nodes)
	l.metrics["verify.sadf_check_ms"] = check.ms()
}

// checkTable1 converts every Table-1 graph both ways and asserts the
// actor counts EXPERIMENTS.md records.
func (l *layers) checkTable1() {
	ctx := refCtx()
	for _, c := range benchmarks.All() {
		g := c.Graph()
		_, ts, err := transform.TraditionalCtx(ctx, g)
		if err != nil {
			l.fail("table 1 %s: traditional conversion: %v", c.Name, err)
			continue
		}
		_, _, ns, err := core.ConvertSymbolicCtx(ctx, g)
		if err != nil {
			l.fail("table 1 %s: new conversion: %v", c.Name, err)
			continue
		}
		want := table1Counts[c.Name]
		status := "ok"
		if ts.Actors != want[0] || ns.Actors() != want[1] {
			status = fmt.Sprintf("MISMATCH, EXPERIMENTS.md has %d/%d", want[0], want[1])
			l.fail("table 1 %s: %d/%d actors, EXPERIMENTS.md %d/%d", c.Name, ts.Actors, ns.Actors(), want[0], want[1])
		}
		l.lines = append(l.lines, fmt.Sprintf("table1 %-22s traditional %5d  new %4d  %s", c.Name, ts.Actors, ns.Actors(), status))
	}
}

// sadfModels returns the workload's SADF models; a workload without any
// (reduce-cold) probes the smallest paper-cold ladder instead, so the
// SADF layer figures exist on every workload.
func sadfModels(ins []*input) ([]*sadf.Model, error) {
	var ms []*sadf.Model
	for _, in := range ins {
		if in.kind == kindSADF {
			ms = append(ms, in.model)
		}
	}
	if len(ms) > 0 {
		return ms, nil
	}
	m, err := ladderModel(sadfLadders[0][0], sadfLadders[0][1])
	if err != nil {
		return nil, err
	}
	return []*sadf.Model{m}, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
