package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// perLayerUnits lists every per-layer metric of the traced run with its
// unit; BENCHMARK.json's per_layer list is the same set.
var perLayerUnits = map[string]string{
	"fleet.hop_ms":                      "ms",
	"fleet.attempts_per_req":            "1/req",
	"fleet.hedge_share":                 "share",
	"serve.decode_us":                   "us",
	"sdfio.parse_us":                    "us",
	"serve.key_us":                      "us",
	"serve.render_us":                   "us",
	"serve.inproc_hit_us":               "us",
	"serve.cache_hit_share":             "share",
	"lint.precheck_ms":                  "ms",
	"passes.reduce_ms":                  "ms",
	"passes.reduce_alloc_mb":            "MB",
	"passes.reduce_steps":               "count",
	"passes.lift_check_ms":              "ms",
	"analysis.hedge_ms":                 "ms",
	"analysis.hedge_overrun_ms":         "ms",
	"analysis.hedge_stalls":             "count",
	"analysis.hedge_wins.matrix":        "count",
	"analysis.hedge_wins.statespace":    "count",
	"analysis.hedge_wins.hsdf":          "count",
	"analysis.matrix_ms":                "ms",
	"analysis.statespace_ms":            "ms",
	"analysis.hsdf_ms":                  "ms",
	"analysis.statespace_decided_share": "share",
	"core.symbolic_ms":                  "ms",
	"core.convert_symbolic_ms":          "ms",
	"transform.convert_traditional_ms":  "ms",
	"maxplus.eigen_ms":                  "ms",
	"mcm.ratio_ms":                      "ms",
	"verify.check_ms":                   "ms",
	"verify.sadf_check_ms":              "ms",
	"sadf.analyze_ms":                   "ms",
	"sadf.automaton_nodes":              "count",
	"obs.overhead_share":                "share",
	"process.peak_heap_mb":              "MB",
}

// runTraced is the per-layer run. It runs the workload's closed loop
// twice over the same seeded request order, first with every registry
// off and then on, each for half the run length; the first gives the
// peak heap, the second's obs counters the cache hit share, and the qps
// ratio of the two the obs overhead (both loops sample the heap, so the
// sampler's cost cancels). It then times each layer's public functions
// on every distinct input of the workload, from outside the program.
func runTraced(name, root string, seed int64, dur time.Duration) (*result, []string, error) {
	off, err := setup(name, root, false)
	if err != nil {
		return nil, nil, err
	}
	lrOff := runLoop(off.t, off.ins, off.ref, off.hot, seed, dur/2, true)
	off.t.close()

	on, err := setup(name, root, true)
	if err != nil {
		return nil, nil, err
	}
	defer on.t.close()
	regs := registries(on.t)
	events0 := cacheEvents(regs)
	lrOn := runLoop(on.t, on.ins, on.ref, on.hot, seed, dur/2, true)
	events := cacheEvents(regs)
	hits, all := 0, 0
	for ev, n := range events {
		d := int(n - events0[ev])
		all += d
		if ev == "hit" || ev == "stale-hit" {
			hits += d
		}
	}

	l := &layers{ref: on.ref, metrics: map[string]float64{}, failures: map[string]int{}}
	l.metrics["serve.cache_hit_share"] = float64(hits) / float64(all)
	l.metrics["obs.overhead_share"] = 1 - qps(lrOn.wholeRounds(len(on.ins)))/qps(lrOff.wholeRounds(len(off.ins)))
	l.metrics["process.peak_heap_mb"] = float64(lrOff.peakHeap) / 1e6
	if on.hot && hits != all {
		l.fail("%s: %d of %d cache lookups in the timed phase missed", name, all-hits, all)
	}
	if !on.hot && hits != 0 {
		l.fail("%s: %d cache hits on a cold workload", name, hits)
	}

	// The router probe runs on serve-hot's working set on every
	// workload: the router cannot relay paper-cold's 16×128 SADF answer
	// (see README.md, Known defect). A cold workload gets its own warm
	// fleet with a router registry.
	hot := on
	if !on.hot {
		if hot, err = setup(serveHot, root, true); err != nil {
			return nil, nil, err
		}
		defer hot.t.close()
	}
	l.probeFleet(hot.ins, hot.t.(*fleetTarget))
	warm, err := warmServer(on.ins, on.ref)
	if err != nil {
		return nil, nil, err
	}
	defer warm.Close()
	l.probeWire(on.ins, warm)
	reds := l.probeReduce(on.ins)
	l.probeEngines(distinctGraphs(on.ins), reds)
	models, err := sadfModels(on.ins)
	if err != nil {
		return nil, nil, err
	}
	l.probeSADF(models)
	l.checkTable1()

	res := &result{Metrics: map[string]metric{}}
	for k, v := range l.metrics {
		unit, ok := perLayerUnits[k]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %q has no unit", k)
		}
		res.Metrics[k] = metric{Value: v, Unit: unit}
	}
	for k := range perLayerUnits {
		if _, ok := res.Metrics[k]; !ok {
			return nil, nil, fmt.Errorf("per-layer metric %q was not measured", k)
		}
	}
	lines := append(summary(off, lrOff), summary(on, lrOn)...)
	lines = append(lines, l.lines...)
	probeFails := 0
	for _, k := range sortedKeys(l.failures) {
		lines = append(lines, fmt.Sprintf("FAILED %s (x%d)", k, l.failures[k]))
		probeFails += l.failures[k]
	}
	for _, lr := range []loopResult{lrOff, lrOn} {
		res.Attempted += len(lr.samples)
		res.Failed += len(lr.samples) - okCount(lr.samples)
	}
	res.Attempted += probeFails
	res.Failed += probeFails
	res.Correct = res.Failed == 0
	return res, lines, nil
}

// warmServer returns an in-process server holding every input's answer
// in its cache, for the in-process cache-hit probe. Each warm-up answer
// is checked against the reference.
func warmServer(ins []*input, ref reference) (*serve.Server, error) {
	s := serve.New(serverOptions(nil))
	ctx := context.Background()
	for _, in := range ins {
		var answers []answer
		switch in.kind {
		case kindGraph:
			req, err := serve.DecodeRequest(in.body)
			if err != nil {
				s.Close()
				return nil, err
			}
			res, err := s.Analyze(ctx, req)
			answers = []answer{graphAnswer(in.name, res, err)}
		case kindSADF:
			req, err := serve.DecodeSADFRequest(in.body)
			if err != nil {
				s.Close()
				return nil, err
			}
			res, err := s.AnalyzeSADF(ctx, req)
			answers = []answer{sadfAnswer(in.name, res, err)}
		case kindBatch:
			breq, err := serve.DecodeBatchRequest(in.body)
			if err != nil {
				s.Close()
				return nil, err
			}
			res, err := s.AnalyzeBatch(ctx, breq)
			answers = batchAnswers(in, res, err)
		}
		for _, a := range answers {
			if why := ref.mismatch(a); why != "" {
				s.Close()
				return nil, fmt.Errorf("warm-up of %s: %s", a.name, why)
			}
		}
	}
	return s, nil
}

// registries returns the serve registries of a target.
func registries(t target) []*obs.Registry {
	switch t := t.(type) {
	case *coldTarget:
		return []*obs.Registry{t.s.Registry()}
	case *fleetTarget:
		var regs []*obs.Registry
		for _, s := range t.servers {
			regs = append(regs, s.Registry())
		}
		return regs
	}
	return nil
}

// cacheEvents sums sdf_cache_events_total by event over the registries.
func cacheEvents(regs []*obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, reg := range regs {
		for _, s := range reg.Snapshot() {
			if s.Name == obs.MetricCacheEvents {
				out[s.Label("event")] += s.Value
			}
		}
	}
	return out
}
