package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts that res carries exactly the named metrics with
// their units.
func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for k, m := range res.Metrics {
		got[k] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics and units\n got  %v\n want %v", got, want)
	}
}

// TestSmoke runs every workload briefly, end to end and traced, and
// checks that every metric BENCHMARK.json names is printed with its unit
// and that every answer passed the reference check.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(layer, perLayerUnits) {
		t.Fatalf("BENCHMARK.json per_layer disagrees with perLayerUnits")
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, lines, err := runEndToEnd(w, "..", 1, 500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("end-to-end run: correct %v, attempted %d, failed %d\n%s",
					res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			checkMetrics(t, res, e2e)

			res, lines, err = runTraced(w, "..", 1, 500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("traced run: correct %v, attempted %d, failed %d\n%s",
					res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			checkMetrics(t, res, layer)
		})
	}
}

// TestReferenceCheckFires tampers with one reference answer and checks
// that the run counts and names the failure.
func TestReferenceCheckFires(t *testing.T) {
	b, err := setup(reduceCold, "..", false)
	if err != nil {
		t.Fatal(err)
	}
	defer b.t.close()
	a := b.ref["irreducible"]
	a.Period = "1"
	b.ref["irreducible"] = a
	lr := runLoop(b.t, b.ins, b.ref, b.hot, 1, 300*time.Millisecond, false)
	if okCount(lr.samples) == len(lr.samples) {
		t.Fatal("no request failed against the tampered reference")
	}
	named := false
	for k := range lr.failures {
		named = named || strings.HasPrefix(k, "irreducible: period")
	}
	if !named {
		t.Errorf("failures %v do not name the tampered input", lr.failures)
	}
}

// TestReferenceFile recomputes the reference answers by their
// independent routes and checks the committed file matches.
func TestReferenceFile(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes every reference answer")
	}
	got, err := computeReference("..")
	if err != nil {
		t.Fatal(err)
	}
	var want reference
	if err := json.Unmarshal(referenceJSON, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s is stale: rerun with -make-reference", referenceFile)
	}
}
