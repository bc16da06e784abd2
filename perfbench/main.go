// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads against the real serving code in this process,
// checks every answer against reference.json, and prints the workload's
// end-to-end metrics, or with --trace 1 its per-layer metrics, as the
// last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root (it reads testdata/graphs), or pass
// --root. README.md describes the workloads, the metrics and their
// observed spread; run.sh builds and runs it in one step.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// A run sets its workload up at least minSetups times and repeats while
// the set-ups took under setupBudget in total, up to maxSetups; setup_s
// is the median. The cold workloads' millisecond set-ups thus repeat
// dozens of times, so one scheduler hiccup cannot move the median,
// while serve-hot's half-second ones run the minimum.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: paper-cold, reduce-cold or serve-hot")
	seed := flag.Int64("seed", 1, "seed of the request order")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	root := flag.String("root", ".", "repository root")
	makeRef := flag.Bool("make-reference", false, "recompute the reference answers and write them to "+referenceFile)
	flag.Parse()

	if *makeRef {
		if err := writeReference(*root, filepath.Join(*root, "perfbench", referenceFile)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var (
		res   *result
		lines []string
		err   error
	)
	if *trace == 1 {
		res, lines, err = runTraced(*workload, *root, *seed, dur)
	} else {
		res, lines, err = runEndToEnd(*workload, *root, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one set-up workload.
type bench struct {
	name string
	ins  []*input
	ref  reference
	hot  bool
	t    target
}

// setup builds the workload's inputs and its server (serve-hot: its
// fleet), and warms it: serve-hot loads its whole working set into both
// replicas' caches; the cold workloads send their smallest graph and
// model once, under names the timed phase never uses.
func setup(name, root string, withObs bool) (*bench, error) {
	ins, err := workloadInputs(name, root)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(ins)
	if err != nil {
		return nil, err
	}
	b := &bench{name: name, ins: ins, ref: ref, hot: name == serveHot}
	if b.hot {
		ft := newFleetTarget(withObs)
		if err := ft.warm(ins, ref); err != nil {
			ft.close()
			return nil, err
		}
		b.t = ft
		return b, nil
	}
	var reg *obs.Registry
	if withObs {
		reg = obs.New()
	}
	ct := newColdTarget(reg)
	for _, in := range smallestPerKind(ins) {
		_, answers := ct.do(in, ct.prepare(in, 0))
		for _, a := range answers {
			if why := ref.mismatch(a); why != "" {
				ct.close()
				return nil, fmt.Errorf("warm-up of %s: %s", a.name, why)
			}
		}
	}
	b.t = ct
	return b, nil
}

// smallestPerKind returns the input with the fewest actors of each kind.
func smallestPerKind(ins []*input) []*input {
	best := map[kind]*input{}
	size := func(in *input) int {
		n := 0
		for _, g := range in.graphs() {
			n += g.NumActors()
		}
		return n
	}
	var out []*input
	for _, in := range ins {
		if b, ok := best[in.kind]; !ok || size(in) < size(b) {
			best[in.kind] = in
		}
	}
	for _, k := range []kind{kindGraph, kindSADF, kindBatch} {
		if in, ok := best[k]; ok {
			out = append(out, in)
		}
	}
	return out
}

// timedSetups sets the workload up repeatedly and returns the last bench
// with the median set-up time.
func timedSetups(name, root string) (*bench, float64, error) {
	var walls []float64
	var b *bench
	total := 0.0
	for len(walls) < minSetups || (len(walls) < maxSetups && total < setupBudget.Seconds()) {
		if b != nil {
			b.t.close()
		}
		// Each set-up starts from a collected heap, so when the garbage
		// collector runs inside it does not depend on the previous one.
		runtime.GC()
		t0 := time.Now()
		var err error
		b, err = setup(name, root, false)
		if err != nil {
			return nil, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		total += walls[len(walls)-1]
	}
	return b, median(walls), nil
}

var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"qps":              "1/s",
	"p50_ms":           "ms",
	"p90_ms":           "ms",
	"case_geomean_ms":  "ms",
	"decided_share":    "share",
	"alloc_mb_per_req": "MB",
}

func runEndToEnd(name, root string, seed int64, dur time.Duration) (*result, []string, error) {
	b, setupS, err := timedSetups(name, root)
	if err != nil {
		return nil, nil, err
	}
	defer b.t.close()
	lr := runLoop(b.t, b.ins, b.ref, b.hot, seed, dur, false)
	vals := lr.endToEnd(len(b.ins))
	vals["setup_s"] = setupS
	res := &result{Metrics: map[string]metric{}}
	for k, v := range vals {
		res.Metrics[k] = metric{Value: v, Unit: endToEndUnits[k]}
	}
	lines := summary(b, lr)
	res.Attempted, res.Failed = len(lr.samples), len(lr.samples)-okCount(lr.samples)
	res.Correct = res.Failed == 0
	return res, lines, nil
}

// summary renders a timed phase for humans: counts, the p99 with its
// sample count, per-input medians, and every failure by name.
func summary(b *bench, lr loopResult) []string {
	lats := make([]float64, len(lr.samples))
	per := make([][]float64, len(b.ins))
	for i, s := range lr.samples {
		ms := float64(s.lat) / float64(time.Millisecond)
		lats[i] = ms
		per[s.input] = append(per[s.input], ms)
	}
	lines := []string{fmt.Sprintf("%s: %d requests in %.2fs, %d verified against %s; p99 %.3fms over %d samples",
		b.name, len(lr.samples), lr.elapsed.Seconds(), okCount(lr.samples), referenceFile, quantile(lats, 0.99), len(lats))}
	for i, in := range b.ins {
		if len(per[i]) > 0 {
			lines = append(lines, fmt.Sprintf("  %-26s n=%-4d median %10.3fms  max %10.3fms",
				in.name, len(per[i]), median(per[i]), quantile(per[i], 1)))
		}
	}
	for _, k := range sortedKeys(lr.failures) {
		lines = append(lines, fmt.Sprintf("FAILED %s (x%d)", k, lr.failures[k]))
	}
	return lines
}
